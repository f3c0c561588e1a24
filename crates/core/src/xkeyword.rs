//! The XKeyword façade: the two-stage architecture of Fig. 7.
//!
//! [`XKeyword::load`] is the load stage — it builds the master index,
//! statistics, target-object BLOBs and the connection relations of the
//! chosen decomposition inside the embedded store. The query methods
//! delegate to an embedded [`QueryEngine`] (the query-processing stage:
//! keyword discoverer → CN generator → optimizer → execution →
//! presentation), keeping this façade's historical soft semantics:
//! queries that cannot produce results — unknown keywords included —
//! return empty [`QueryResults`] rather than errors. Use
//! [`XKeyword::engine`] for typed errors, plan caching introspection and
//! per-stage metrics.
//!
//! # The write path
//!
//! [`XKeyword::insert_document`] / [`XKeyword::delete_document`] mutate
//! a loaded instance *incrementally*: a new document's target objects
//! are appended to the [`TargetGraph`], its postings delta-merged into
//! the [`MasterIndex`] (re-encoding at most the final packed block per
//! touched keyword), and the connection relations extended with exactly
//! the rows the new subtree contributes — nothing is rebuilt from
//! scratch. Readers are never blocked: each mutation assembles a fresh
//! [`crate::engine::ReadView`] sharing every untouched structure by
//! `Arc` and installs it atomically; queries in flight keep their
//! snapshot.
//!
//! Durability comes from an optional write-ahead log
//! ([`LoadOptions::wal_dir`]): every mutation is appended — checksummed
//! and fsynced per [`LoadOptions::fsync`] — *before* it is applied, and
//! a reopened instance replays the surviving log through the same
//! incremental path ([`XKeyword::recoveries`] counts replays). A torn
//! tail is truncated, never trusted. [`XKeyword::checkpoint`] rewrites
//! the log to the net set of live documents.

use crate::engine::{QueryEngine, QuerySpec};
use crate::error::XkError;
use crate::exec::{self, ExecMode, PartialCache, QueryResults};
use crate::master_index::MasterIndex;
use crate::optimizer::{build_plan_anchored, CtssnPlan};
use crate::postings::PostingsFormatKind;
use crate::presentation::{expand_on_demand, PresentationGraph};
use crate::relations::{PhysicalPolicy, RelationCatalog};
use crate::target::{TargetGraph, ToId};
use crate::{decompose, decompose::Decomposition};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xkw_graph::{TssGraph, XmlGraph};
use xkw_store::{Db, FsyncPolicy, StoreError, Wal, WalRecord};

/// File name of the write-ahead log inside [`LoadOptions::wal_dir`].
pub const WAL_FILE: &str = "xkeyword.wal";

/// Which decomposition the load stage materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionSpec {
    /// One fragment per TSS edge.
    Minimal,
    /// All fragments of size ≤ L.
    Complete {
        /// Fragment size bound.
        l: usize,
    },
    /// The Fig. 12 algorithm with parameters M (max CTSSN size) and B
    /// (max joins).
    XKeyword {
        /// Maximum CTSSN size to cover.
        m: usize,
        /// Maximum joins per CTSSN.
        b: usize,
    },
    /// XKeyword ∪ Minimal — the combination §6/§7 recommend for the
    /// on-demand expansion of presentation graphs.
    Combined {
        /// Maximum CTSSN size to cover.
        m: usize,
        /// Maximum joins per CTSSN.
        b: usize,
    },
}

/// Load-stage options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Decomposition to build.
    pub decomposition: DecompositionSpec,
    /// Physical design of the connection relations.
    pub policy: PhysicalPolicy,
    /// Buffer-pool size in pages.
    pub pool_pages: usize,
    /// Buffer-pool lock shards (`0` = pick from `pool_pages`; see
    /// [`xkw_store::BufferPool::with_shards`]).
    pub pool_shards: usize,
    /// The engine-level worker-thread default (clamped to ≥ 1), read by
    /// the positional `query_all`/`query_all_hash` delegates and
    /// `canonical_results`; a [`QuerySpec`] names its own count.
    pub exec_threads: usize,
    /// Whether to serialize target-object BLOBs.
    pub build_blobs: bool,
    /// Fault-injection plan for the simulated disk, installed before any
    /// table is built so load-time writes are subject to torn-write
    /// rules too. All randomness comes from the spec's explicit seed —
    /// runs are reproducible by construction. `None` (the default)
    /// leaves the fault layer disarmed: reads skip checksum verification
    /// and pay a single relaxed atomic load.
    pub faults: Option<xkw_store::FaultSpec>,
    /// Storage format of the master index's containing lists. The
    /// default honours the `XKW_POSTINGS` environment variable
    /// ([`PostingsFormatKind::from_env`]), so a whole test suite can be
    /// switched to the packed format without touching call sites.
    pub postings_format: PostingsFormatKind,
    /// Directory of the write-ahead log. `None` (the default) runs
    /// without durability: mutations apply in memory only. When set, the
    /// load stage opens (creating if absent) `wal_dir/`[`WAL_FILE`],
    /// replays any surviving records through the incremental write path,
    /// and logs every subsequent mutation before applying it.
    pub wal_dir: Option<PathBuf>,
    /// When to fsync the write-ahead log (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            policy: PhysicalPolicy::clustered(),
            pool_pages: 1024,
            pool_shards: 0,
            exec_threads: 1,
            build_blobs: true,
            faults: None,
            postings_format: PostingsFormatKind::from_env(),
            wal_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Failures of the load stage, including WAL recovery when
/// [`LoadOptions::wal_dir`] is set.
#[derive(Debug)]
pub enum LoadError {
    /// Data/schema mismatch.
    Conformance(xkw_graph::ConformanceError),
    /// Opening or replaying the write-ahead log failed at the I/O layer.
    Wal(StoreError),
    /// A WAL record decoded cleanly off disk but could not be re-applied
    /// (e.g. the logged document no longer classifies against the TSS).
    Replay {
        /// Index of the offending record within the surviving log.
        record: u64,
        /// Why the apply failed.
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Conformance(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "write-ahead log: {e}"),
            Self::Replay { record, detail } => {
                write!(f, "replaying WAL record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<xkw_graph::ConformanceError> for LoadError {
    fn from(e: xkw_graph::ConformanceError) -> Self {
        LoadError::Conformance(e)
    }
}

/// Failures of the zero-configuration [`XKeyword::load_xml`] path.
#[derive(Debug)]
pub enum LoadXmlError {
    /// Malformed XML.
    Parse(xkw_graph::ParseError),
    /// The derived segments violate the TSS constraints.
    Tss(xkw_graph::tss::TssError),
    /// Data/schema mismatch (cannot occur for inferred schemas, reported
    /// defensively).
    Conformance(xkw_graph::ConformanceError),
    /// Opening or replaying the write-ahead log failed at the I/O layer.
    Wal(StoreError),
    /// A WAL record decoded cleanly but could not be re-applied.
    Replay {
        /// Index of the offending record within the surviving log.
        record: u64,
        /// Why the apply failed.
        detail: String,
    },
}

impl std::fmt::Display for LoadXmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::Tss(e) => write!(f, "{e}"),
            Self::Conformance(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "write-ahead log: {e}"),
            Self::Replay { record, detail } => {
                write!(f, "replaying WAL record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadXmlError {}

/// One ingested document's bookkeeping, held for deletes (which target
/// objects to retire) and checkpoints (the XML to re-log).
#[derive(Debug, Clone)]
struct DocInfo {
    /// Target objects this document contributed (contiguous by
    /// construction — the fragment was appended as one block).
    to_range: Range<ToId>,
    /// The source XML, verbatim, for checkpoint rewriting.
    xml: String,
}

/// The serialized write path: at most one mutation is in flight, and the
/// WAL append strictly precedes the in-memory apply.
#[derive(Debug, Default)]
struct IngestState {
    /// The write-ahead log; `None` when loaded without a `wal_dir`.
    wal: Option<Wal>,
    /// Live WAL-ingested documents by id.
    docs: BTreeMap<u64, DocInfo>,
    /// Next document id to assign (monotone, never reused).
    next_doc: u64,
}

/// A loaded XKeyword instance.
pub struct XKeyword {
    /// The XML data graph; grows on ingest, hence the lock. Readers take
    /// short read guards ([`XKeyword::graph`]); only the serialized
    /// write path takes the write side.
    graph: RwLock<XmlGraph>,
    /// The TSS graph (owning the schema graph).
    pub tss: Arc<TssGraph>,
    /// The embedded store holding the connection relations and BLOBs.
    pub db: Arc<Db>,
    engine: QueryEngine,
    ingest: Mutex<IngestState>,
    /// Times a non-empty WAL was replayed on open.
    recoveries: AtomicU64,
    build_blobs: bool,
}

impl XKeyword {
    /// The load stage: decomposes the data into target objects, builds
    /// the master index, BLOBs and connection relations.
    ///
    /// ```
    /// use xkw_core::prelude::*;
    /// use xkw_core::exec::ExecMode;
    ///
    /// let (graph, _, _) = xkw_datagen::tpch::figure1();
    /// let xk = XKeyword::load(
    ///     graph,
    ///     xkw_datagen::tpch::tss_graph(),
    ///     LoadOptions::default(),
    /// ).unwrap();
    /// let spec = QuerySpec::all(&["john", "vcr"], 8, ExecMode::Naive);
    /// let out = xk.engine().query(&spec).unwrap();
    /// assert_eq!(out.mttons.iter().map(|m| m.score).min(), Some(6));
    /// ```
    ///
    /// # Errors
    /// Fails if the data graph does not classify against the TSS graph's
    /// schema, or — with [`LoadOptions::wal_dir`] set — when the WAL
    /// cannot be opened or a surviving record cannot be replayed.
    pub fn load(graph: XmlGraph, tss: TssGraph, options: LoadOptions) -> Result<Self, LoadError> {
        let _load_span = xkw_obs::span!("load", pool_pages = options.pool_pages);
        let targets_span = xkw_obs::span!("load.targets");
        let targets = TargetGraph::build(&graph, &tss)?;
        drop(targets_span);
        let mut master_span = xkw_obs::span!("load.master");
        let master = MasterIndex::build_with(&graph, &targets, options.postings_format);
        master_span.record("targets", targets.len());
        master_span.record("postings_bytes", master.postings_bytes() as u64);
        drop(master_span);
        if xkw_obs::enabled() {
            let reg = xkw_obs::global();
            reg.gauge("xkw_postings_bytes")
                .set(master.postings_bytes() as u64);
            reg.gauge("xkw_graph_bytes").set(graph.graph_bytes() as u64);
        }
        let db = Db::with_pool_shards(options.pool_pages, options.pool_shards);
        if let Some(spec) = options.faults.clone() {
            db.install_faults(spec);
        }
        if options.build_blobs {
            let _blobs_span = xkw_obs::span!("load.blobs", count = targets.len());
            for id in 0..targets.len() as ToId {
                db.blobs().put(id, targets.to_xml(&graph, id));
            }
        }
        let catalog_span = xkw_obs::span!("load.catalog");
        let decomposition: Decomposition = match options.decomposition {
            DecompositionSpec::Minimal => decompose::minimal(&tss),
            DecompositionSpec::Complete { l } => decompose::complete(&tss, l),
            DecompositionSpec::XKeyword { m, b } => decompose::xkeyword(&tss, m, b),
            DecompositionSpec::Combined { m, b } => {
                decompose::xkeyword(&tss, m, b).union(&decompose::minimal(&tss), &tss)
            }
        };
        let catalog =
            RelationCatalog::materialize(&db, &targets, decomposition, options.policy, "cr");
        drop(catalog_span);
        let tss = Arc::new(tss);
        let targets = Arc::new(targets);
        let master = Arc::new(master);
        let db = Arc::new(db);
        let catalog = Arc::new(catalog);
        let engine = QueryEngine::new(
            tss.clone(),
            targets.clone(),
            master.clone(),
            db.clone(),
            catalog.clone(),
        );
        engine.set_exec_threads(options.exec_threads);
        let xk = XKeyword {
            graph: RwLock::new(graph),
            tss,
            db,
            engine,
            ingest: Mutex::new(IngestState::default()),
            recoveries: AtomicU64::new(0),
            build_blobs: options.build_blobs,
        };
        if let Some(dir) = &options.wal_dir {
            xk.attach_wal(dir, options.fsync)?;
            // Arm any WAL-targeted fault only after replay: the fault
            // models a crash in *this* process's append stream.
            if let Some(f) = options.faults.as_ref().and_then(|s| s.wal_fault()) {
                xk.set_wal_fault(Some(f));
            }
        }
        Ok(xk)
    }

    /// Zero-configuration load: parses XML text, infers the schema graph
    /// by observation, derives a target decomposition automatically
    /// (value leaves join their parents' segments, pure connectors
    /// become dummies — see [`xkw_graph::infer`]) and runs the regular
    /// load stage. A hand-written schema/TSS design remains strictly
    /// more precise (choice nodes cannot be observed from instances);
    /// this is the ad-hoc path for arbitrary documents.
    ///
    /// # Errors
    /// Fails on malformed XML, when the derived segments violate the
    /// TSS constraints, or on a WAL open/replay failure.
    pub fn load_xml(xml: &str, options: LoadOptions) -> Result<Self, LoadXmlError> {
        let graph = xkw_graph::parse(xml).map_err(LoadXmlError::Parse)?;
        let schema = xkw_graph::infer_schema(&graph);
        let tss = xkw_graph::auto_mapping(&schema, &graph).map_err(LoadXmlError::Tss)?;
        Self::load(graph, tss, options).map_err(|e| match e {
            LoadError::Conformance(c) => LoadXmlError::Conformance(c),
            LoadError::Wal(w) => LoadXmlError::Wal(w),
            LoadError::Replay { record, detail } => LoadXmlError::Replay { record, detail },
        })
    }

    /// Opens (or creates) the WAL and replays any surviving records
    /// through the incremental write path. The torn tail, if any, was
    /// already truncated by [`Wal::open`].
    fn attach_wal(&self, dir: &Path, policy: FsyncPolicy) -> Result<(), LoadError> {
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE), policy).map_err(LoadError::Wal)?;
        let mut state = self.ingest.lock();
        state.wal = Some(wal);
        let recovering = !replay.records.is_empty() || replay.truncated_bytes > 0;
        for (i, rec) in replay.records.into_iter().enumerate() {
            let applied = match rec {
                WalRecord::Insert { doc, xml } => self.apply_insert(&mut state, doc, &xml),
                WalRecord::Delete { doc } => self.apply_delete(&mut state, doc),
            };
            applied.map_err(|e| LoadError::Replay {
                record: i as u64,
                detail: e.to_string(),
            })?;
        }
        drop(state);
        if recovering {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            if xkw_obs::enabled() {
                xkw_obs::global().counter("xkw_recoveries_total").inc();
            }
        }
        Ok(())
    }

    /// Ingests one XML document incrementally and returns its document
    /// id. The document is parsed and classified first (a bad document
    /// changes nothing), then logged to the WAL (when configured), then
    /// applied: target objects appended, postings delta-merged, BLOBs
    /// written, connection relations extended — and the new read view
    /// installed atomically. Concurrent queries keep their snapshot.
    ///
    /// # Errors
    /// [`XkError::BadDocument`] on parse/classification failure (nothing
    /// logged or applied); [`XkError::Store`] when the WAL append fails
    /// (nothing applied — on a crash fault the record is *not* durable
    /// and recovery will not see it).
    pub fn insert_document(&self, xml: &str) -> Result<u64, XkError> {
        let start = Instant::now();
        let mut state = self.ingest.lock();
        let doc = state.next_doc.max(1);
        // Validate before logging: the WAL must never hold a record that
        // cannot be replayed.
        let frag = xkw_graph::parse(xml).map_err(|e| XkError::BadDocument(e.to_string()))?;
        TargetGraph::build(&frag, &self.tss).map_err(|e| XkError::BadDocument(e.to_string()))?;
        if let Some(wal) = &mut state.wal {
            wal.append(&WalRecord::Insert {
                doc,
                xml: xml.to_owned(),
            })
            .map_err(XkError::Store)?;
        }
        self.apply_insert(&mut state, doc, xml)?;
        let wal_stats = state.wal.as_ref().map(Wal::snapshot);
        drop(state);
        self.publish_ingest_metrics(wal_stats.as_ref());
        self.record_ingest("ingest", format!("doc:{doc}"), start);
        Ok(doc)
    }

    /// Deletes a previously ingested document: its postings leave the
    /// master index and its rows leave the connection relations; the new
    /// view is installed atomically. Only documents ingested through
    /// [`XKeyword::insert_document`] can be deleted — the bulk-loaded
    /// base is not under WAL control.
    ///
    /// # Errors
    /// [`XkError::UnknownDocument`]; [`XkError::Store`] when the WAL
    /// append fails (nothing applied).
    pub fn delete_document(&self, doc: u64) -> Result<(), XkError> {
        let start = Instant::now();
        let mut state = self.ingest.lock();
        if !state.docs.contains_key(&doc) {
            return Err(XkError::UnknownDocument(doc));
        }
        if let Some(wal) = &mut state.wal {
            wal.append(&WalRecord::Delete { doc })
                .map_err(XkError::Store)?;
        }
        self.apply_delete(&mut state, doc)?;
        let wal_stats = state.wal.as_ref().map(Wal::snapshot);
        drop(state);
        self.publish_ingest_metrics(wal_stats.as_ref());
        self.record_ingest("delete", format!("doc:{doc}"), start);
        Ok(())
    }

    /// Rewrites the WAL to the net set of live documents (insert records
    /// only, in document order) and truncates the old log atomically. A
    /// crash at any point leaves either the old or the new log intact.
    /// No-op without a WAL.
    ///
    /// # Errors
    /// [`XkError::Store`] on WAL I/O failure.
    pub fn checkpoint(&self) -> Result<(), XkError> {
        let mut state = self.ingest.lock();
        let records: Vec<WalRecord> = state
            .docs
            .iter()
            .map(|(&doc, info)| WalRecord::Insert {
                doc,
                xml: info.xml.clone(),
            })
            .collect();
        if let Some(wal) = &mut state.wal {
            wal.checkpoint(&records).map_err(XkError::Store)?;
        }
        Ok(())
    }

    /// The incremental insert: absorb the fragment into the data graph,
    /// append its target objects, delta-merge postings, write BLOBs,
    /// extend the touched connection relations, install the new view.
    fn apply_insert(&self, state: &mut IngestState, doc: u64, xml: &str) -> Result<(), XkError> {
        let frag = xkw_graph::parse(xml).map_err(|e| XkError::BadDocument(e.to_string()))?;
        let frag_targets = TargetGraph::build(&frag, &self.tss)
            .map_err(|e| XkError::BadDocument(e.to_string()))?;
        let view = self.engine.view();
        let mut graph = self.graph.write();
        let node_offset = graph.absorb(&frag);
        let (targets, range) = view.targets.append(&frag_targets, node_offset);
        let delta = MasterIndex::delta_for(&graph, &targets, range.clone());
        let master = view.master.with_appended(&delta);
        if self.build_blobs {
            for id in range.clone() {
                self.db.blobs().put(id, targets.to_xml(&graph, id));
            }
        }
        drop(graph);
        let catalog = view
            .catalog
            .with_inserted(&self.db, &targets, range.clone(), view.epoch + 1);
        self.engine
            .install_view(Arc::new(targets), Arc::new(master), Arc::new(catalog));
        state.docs.insert(
            doc,
            DocInfo {
                to_range: range,
                xml: xml.to_owned(),
            },
        );
        state.next_doc = state.next_doc.max(doc + 1);
        Ok(())
    }

    /// The incremental delete: drop the document's postings range and
    /// relation rows, install the new view. The target graph and data
    /// graph keep the dead entries — without postings or rows they are
    /// unreachable, and ToIds are never reused.
    fn apply_delete(&self, state: &mut IngestState, doc: u64) -> Result<(), XkError> {
        let info = state
            .docs
            .get(&doc)
            .ok_or(XkError::UnknownDocument(doc))?
            .clone();
        let range = info.to_range;
        let view = self.engine.view();
        let master = view.master.without_range(range.start, range.end);
        let catalog = view
            .catalog
            .with_deleted(&self.db, range.clone(), view.epoch + 1);
        self.engine
            .install_view(view.targets.clone(), Arc::new(master), Arc::new(catalog));
        state.docs.remove(&doc);
        Ok(())
    }

    /// Live WAL-ingested document ids, ascending.
    pub fn documents(&self) -> Vec<u64> {
        self.ingest.lock().docs.keys().copied().collect()
    }

    /// A WAL counter snapshot, or `None` when loaded without a
    /// [`LoadOptions::wal_dir`].
    pub fn wal_stats(&self) -> Option<xkw_store::WalSnapshot> {
        self.ingest.lock().wal.as_ref().map(Wal::snapshot)
    }

    /// Times a non-empty WAL was replayed on open (0 or 1 per instance).
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Installs a deterministic WAL fault for crash testing — see
    /// [`xkw_store::WalFault`]. No-op without a WAL.
    pub fn set_wal_fault(&self, fault: Option<xkw_store::WalFault>) {
        if let Some(wal) = &mut self.ingest.lock().wal {
            wal.set_fault(fault);
        }
    }

    /// Feeds WAL/ingest counters into the global registry (enabled
    /// runs only) after a mutation.
    fn publish_ingest_metrics(&self, wal: Option<&xkw_store::WalSnapshot>) {
        if !xkw_obs::enabled() {
            return;
        }
        let reg = xkw_obs::global();
        reg.counter("xkw_ingest_ops_total").inc();
        if let Some(s) = wal {
            reg.gauge("xkw_wal_appends_total").set(s.appends);
            reg.gauge("xkw_wal_bytes").set(s.bytes);
            reg.gauge("xkw_wal_fsyncs_total").set(s.fsyncs);
        }
    }

    /// Tags one ingest operation in the engine's flight recorder, so the
    /// write path shows up in the query log and windowed dashboard next
    /// to the queries it interleaves with. Never requests a deferred
    /// EXPLAIN — an ingest cannot be re-run as a query.
    fn record_ingest(&self, path: &'static str, label: String, start: Instant) {
        let rec = self.engine.recorder();
        if !rec.enabled() {
            return;
        }
        let id = rec.next_id();
        let total_ns = start.elapsed().as_nanos() as u64;
        let slow = total_ns >= rec.slow_threshold_ns();
        rec.push(xkw_obs::QueryRecord {
            id,
            keywords: vec![label],
            z: 0,
            k: None,
            path,
            mode: xkw_obs::RecordedMode::Naive,
            postings: match self.master().format() {
                PostingsFormatKind::Raw => "raw",
                PostingsFormatKind::Packed => "packed",
            },
            deadline_ns: None,
            prune: false,
            plan_cache_hit: false,
            discover_ns: 0,
            plan_ns: 0,
            exec_ns: total_ns,
            present_ns: 0,
            total_ns,
            plans: 0,
            plans_pruned: 0,
            plans_early_stopped: 0,
            rows: 0,
            result_digest: 0,
            io_hits: 0,
            io_misses: 0,
            degradation: None,
            error: None,
            slow,
            forced: slow,
            sampled: slow || rec.should_sample(id),
            spans: Vec::new(),
            explain: None,
            explain_error: None,
            needs_explain: false,
        });
    }

    /// The shared query-stage engine behind this instance. It exposes the
    /// typed-error `query`/`explain`/`prepare` entry points, the plan cache and
    /// per-stage [`crate::engine::QueryMetrics`]/[`crate::engine::EngineStats`];
    /// being `Send + Sync`, `&engine` can be handed to worker threads.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// A read guard over the XML data graph. Hold it briefly — the write
    /// path takes the write side while absorbing an ingested document.
    pub fn graph(&self) -> RwLockReadGuard<'_, XmlGraph> {
        self.graph.read()
    }

    /// The target-object decomposition of the current read view.
    pub fn targets(&self) -> Arc<TargetGraph> {
        self.engine.targets()
    }

    /// The master index of the current read view.
    pub fn master(&self) -> Arc<MasterIndex> {
        self.engine.master()
    }

    /// The connection-relation catalog of the current read view.
    pub fn catalog(&self) -> Arc<RelationCatalog> {
        self.engine.catalog()
    }

    /// Exports this instance's metrics into `registry`: the store's
    /// pool/fault counters, the index-footprint gauges
    /// (`xkw_postings_bytes` / `xkw_graph_bytes`), and the write path's
    /// WAL/document counters (`xkw_wal_appends_total`, `xkw_wal_bytes`,
    /// `xkw_wal_fsyncs_total`, `xkw_recoveries_total`, `xkw_docs_total`).
    pub fn export_metrics(&self, registry: &xkw_obs::Registry) {
        self.db.export_metrics(registry);
        registry
            .gauge("xkw_postings_bytes")
            .set(self.master().postings_bytes() as u64);
        registry
            .gauge("xkw_graph_bytes")
            .set(self.graph().graph_bytes() as u64);
        registry
            .gauge("xkw_recoveries_total")
            .set(self.recoveries());
        let state = self.ingest.lock();
        registry
            .gauge("xkw_docs_total")
            .set(state.docs.len() as u64);
        if let Some(s) = state.wal.as_ref().map(Wal::snapshot) {
            registry.gauge("xkw_wal_appends_total").set(s.appends);
            registry.gauge("xkw_wal_bytes").set(s.bytes);
            registry.gauge("xkw_wal_fsyncs_total").set(s.fsyncs);
            registry
                .gauge("xkw_wal_checkpoints_total")
                .set(s.checkpoints);
        }
    }

    /// The first stages of query processing: keyword discoverer → CN
    /// generator → CTSSN reduction → optimizer. Returns executable plans
    /// in increasing score order; empty when the query cannot produce
    /// results (unknown keywords included).
    pub fn plans(&self, keywords: &[&str], z: usize) -> Vec<CtssnPlan> {
        self.engine
            .prepare(keywords, z)
            .map(|p| p.plans)
            .unwrap_or_default()
    }

    /// Every result by nested-loop probes, any error flattened to an
    /// empty answer — `engine().query(&QuerySpec::all(..))` keeps it.
    /// Kept for `benchmark/`; remove with the next benchmark re-baseline.
    pub fn query_all(&self, keywords: &[&str], z: usize, mode: ExecMode) -> QueryResults {
        self.engine
            .query_all(keywords, z, mode)
            .map(|o| o.results)
            .unwrap_or_default()
    }

    /// A canonical, content-addressed serialization of a query's full
    /// result set: one line per MTTON — score, then each target object
    /// rendered as XML — in presentation order. Two instances holding
    /// the same logical documents produce byte-identical strings even
    /// when their internal ToIds differ (deletes leave id gaps; a bulk
    /// rebuild compacts them): live target objects on both sides are
    /// related by a monotone id bijection, so ordering and rendered
    /// content agree. This is the crash-recovery oracle's comparator.
    ///
    /// # Errors
    /// The engine's query errors, except [`XkError::UnknownKeyword`]
    /// which canonicalizes to the empty string (an instance holding
    /// fewer documents may legitimately not know a keyword).
    pub fn canonical_results(&self, keywords: &[&str], z: usize) -> Result<String, XkError> {
        use std::fmt::Write as _;
        let spec = QuerySpec {
            threads: self.engine.exec_threads(),
            ..QuerySpec::all(keywords, z, ExecMode::Naive)
        };
        let mttons = match self.engine.query(&spec) {
            Ok(o) => o.mttons,
            Err(XkError::UnknownKeyword(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let targets = self.targets();
        let graph = self.graph();
        let mut out = String::new();
        for m in &mttons {
            let _ = write!(out, "{}|", m.score);
            for &to in &m.tos {
                let _ = write!(out, "{};", targets.to_xml(&graph, to));
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// Streams results lazily over pre-built plans — the page-by-page
    /// presentation of §3.2. Use [`XKeyword::plans`] to build the plans
    /// and [`XKeyword::catalog`] to pin the catalog snapshot, then pull
    /// pages:
    ///
    /// ```ignore
    /// let plans = xk.plans(&["john", "vcr"], 8);
    /// let catalog = xk.catalog();
    /// let mut stream = xk.stream(&catalog, &plans, ExecMode::Cached { capacity: 1024 });
    /// let first_page = stream.page(10);
    /// ```
    pub fn stream<'a>(
        &'a self,
        catalog: &'a RelationCatalog,
        plans: &'a [CtssnPlan],
        mode: ExecMode,
    ) -> exec::ResultStream<'a> {
        exec::ResultStream::new(&self.db, catalog, plans, mode)
    }

    /// Builds the initial presentation graph (PG0) of plan `plan_idx`:
    /// its top-1 result.
    pub fn initial_presentation(
        &self,
        plans: &[CtssnPlan],
        plan_idx: usize,
    ) -> Option<PresentationGraph> {
        let catalog = self.catalog();
        let plan = &plans[plan_idx];
        let mut cache = PartialCache::new(1024);
        let mut stats = exec::ExecStats::default();
        let mut first: Option<Vec<ToId>> = None;
        let _ = exec::eval_plan(
            &self.db,
            &catalog,
            plan_idx,
            plan,
            ExecMode::Cached { capacity: 1024 },
            &mut cache,
            &mut stats,
            &mut |r| {
                first = Some(r.assignment);
                std::ops::ControlFlow::Break(())
            },
        );
        first.map(|a| PresentationGraph::initial(plan_idx, a))
    }

    /// Expands a presentation graph on `role` via the on-demand algorithm
    /// (Fig. 13), probing this instance's connection relations.
    pub fn expand(
        &self,
        keywords: &[&str],
        plans: &[CtssnPlan],
        pg: &mut PresentationGraph,
        role: u8,
        cache: &mut PartialCache,
    ) -> exec::ExecStats {
        let catalog = self.catalog();
        let master = self.master();
        let targets = self.targets();
        let plan = &plans[pg.plan];
        let Some(anchored) = build_plan_anchored(&plan.ctssn, &catalog, &master, keywords, role)
        else {
            return exec::ExecStats::default();
        };
        let universe = targets.tos_of(plan.ctssn.tree.roles[role as usize]);
        let (_, stats) = expand_on_demand(
            &self.db,
            &catalog,
            &anchored,
            pg,
            universe,
            ExecMode::Cached { capacity: 4096 },
            cache,
        );
        stats
    }

    /// Fetches a target object's BLOB (its XML fragment).
    pub fn blob(&self, to: ToId) -> Option<String> {
        self.db
            .blobs()
            .get(to)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// A short display label for a target object (`Person[John]`).
    pub fn label(&self, to: ToId) -> String {
        let graph = self.graph();
        self.targets().label(&graph, &self.tss, to)
    }

    /// Renders a presentation graph with labels and the TSS edges'
    /// semantic annotations — the textual equivalent of Fig. 3.
    pub fn render_presentation(&self, plans: &[CtssnPlan], pg: &PresentationGraph) -> String {
        use std::fmt::Write as _;
        let plan = &plans[pg.plan];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Presentation graph for CN: {} (score {})",
            plan.ctssn.display(&self.tss),
            plan.score
        );
        for (role, to) in pg.nodes() {
            let expanded = if pg.expanded_roles().any(|r| r == role) {
                "*"
            } else {
                ""
            };
            let _ = writeln!(out, "  [{role}{expanded}] {}", self.label(to));
        }
        for m in pg.supported_mttons() {
            let labels: Vec<String> = plan
                .ctssn
                .tree
                .edges
                .iter()
                .map(|e| {
                    let te = self.tss.edge(e.edge);
                    format!(
                        "{} -({})-> {}",
                        self.label(m[e.a as usize]),
                        te.forward_desc,
                        self.label(m[e.b as usize])
                    )
                })
                .collect();
            let _ = writeln!(out, "  result: {}", labels.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::enumerate_mttons;
    use xkw_datagen::tpch;

    fn load(spec: DecompositionSpec, policy: PhysicalPolicy) -> XKeyword {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        XKeyword::load(
            graph,
            tss,
            LoadOptions {
                decomposition: spec,
                policy,
                pool_pages: 256,
                ..LoadOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_john_vcr() {
        let xk = load(
            DecompositionSpec::XKeyword { m: 6, b: 2 },
            PhysicalPolicy::clustered(),
        );
        let res = xk
            .engine()
            .query(&QuerySpec::all(
                &["john", "vcr"],
                8,
                ExecMode::Cached { capacity: 1024 },
            ))
            .unwrap()
            .results;
        let mttons = res.mttons();
        let oracle = enumerate_mttons(&xk.graph(), &xk.targets(), &["john", "vcr"], 8);
        assert_eq!(mttons, oracle);
        assert_eq!(mttons.iter().map(|m| m.score).min(), Some(6));
    }

    #[test]
    fn blobs_and_labels() {
        let xk = load(DecompositionSpec::Minimal, PhysicalPolicy::clustered());
        let res = xk
            .engine()
            .query(&QuerySpec::all(&["john", "vcr"], 8, ExecMode::Naive))
            .unwrap()
            .results;
        let best = &res.mttons()[0];
        let labels: Vec<String> = best.tos.iter().map(|&t| xk.label(t)).collect();
        assert!(labels.iter().any(|l| l.contains("John")));
        for &t in &best.tos {
            let blob = xk.blob(t).expect("blob built");
            assert!(blob.starts_with('<'));
        }
    }

    #[test]
    fn topk_on_facade() {
        let xk = load(DecompositionSpec::Minimal, PhysicalPolicy::clustered());
        let res = xk
            .engine()
            .query(&QuerySpec {
                threads: 2,
                ..QuerySpec::topk(&["us", "vcr"], 8, 5, ExecMode::Cached { capacity: 1024 })
            })
            .unwrap()
            .results;
        assert_eq!(res.rows.len(), 5);
    }

    #[test]
    fn presentation_flow() {
        let xk = load(
            DecompositionSpec::Combined { m: 6, b: 2 },
            PhysicalPolicy::clustered(),
        );
        let kws = ["us", "vcr"];
        let plans = xk.plans(&kws, 8);
        // Find a plan with results.
        let res = xk
            .engine()
            .query(&QuerySpec::all(&kws, 8, ExecMode::Naive))
            .unwrap()
            .results;
        let pi = res.rows[0].plan;
        let mut pg = xk.initial_presentation(&plans, pi).expect("PG0");
        assert!(pg.invariant_holds());
        let mut cache = PartialCache::new(1024);
        let stats = xk.expand(&kws, &plans, &mut pg, 0, &mut cache);
        assert!(stats.probes > 0);
        assert!(pg.invariant_holds());
        let rendered = xk.render_presentation(&plans, &pg);
        assert!(rendered.contains("Presentation graph"));
    }

    #[test]
    fn unknown_keywords_give_empty() {
        let xk = load(DecompositionSpec::Minimal, PhysicalPolicy::bare());
        let res = xk.query_all(&["florp", "blag"], 8, ExecMode::Naive);
        assert!(res.rows.is_empty());
        assert!(xk.plans(&["florp"], 8).is_empty());
    }

    // ---- The write path -------------------------------------------------

    const BASE: &str = "<bib>\
        <paper><title>xml keyword search</title><author>jones</author></paper>\
        <paper><title>graph proximity</title><author>smith</author></paper>\
        </bib>";
    const DOC2: &str = "<bib>\
        <paper><title>proximity ranking</title><author>royce</author></paper>\
        </bib>";
    const DOC3: &str = "<bib>\
        <paper><title>incremental indexing</title><author>jones</author></paper>\
        </bib>";
    const QUERIES: &[&[&str]] = &[
        &["jones", "proximity"],
        &["royce", "ranking"],
        &["jones", "smith"],
        &["incremental", "jones"],
    ];

    /// An oracle instance bulk-loaded from `docs` absorbed into one
    /// graph, classified against BASE's inferred TSS.
    fn bulk_oracle(docs: &[&str]) -> XKeyword {
        let base = xkw_graph::parse(BASE).unwrap();
        let schema = xkw_graph::infer_schema(&base);
        let tss = xkw_graph::auto_mapping(&schema, &base).unwrap();
        let mut graph = base;
        for doc in docs {
            let frag = xkw_graph::parse(doc).unwrap();
            graph.absorb(&frag);
        }
        XKeyword::load(graph, tss, LoadOptions::default()).unwrap()
    }

    fn assert_canonical_eq(a: &XKeyword, b: &XKeyword, tag: &str) {
        for q in QUERIES {
            assert_eq!(
                a.canonical_results(q, 6).unwrap(),
                b.canonical_results(q, 6).unwrap(),
                "{tag}: query {q:?}"
            );
        }
    }

    #[test]
    fn incremental_insert_matches_bulk_oracle() {
        let xk = XKeyword::load_xml(BASE, LoadOptions::default()).unwrap();
        let d2 = xk.insert_document(DOC2).unwrap();
        let d3 = xk.insert_document(DOC3).unwrap();
        assert_eq!(xk.documents(), vec![d2, d3]);
        assert_eq!(xk.engine().epoch(), 2, "one view install per insert");
        let oracle = bulk_oracle(&[DOC2, DOC3]);
        assert_canonical_eq(&xk, &oracle, "insert");
        // New keywords are discoverable and their blobs render.
        let res = xk
            .engine()
            .query(&QuerySpec::all(&["royce", "ranking"], 6, ExecMode::Naive))
            .unwrap()
            .results;
        assert!(!res.rows.is_empty());
    }

    #[test]
    fn delete_restores_prior_results() {
        let xk = XKeyword::load_xml(BASE, LoadOptions::default()).unwrap();
        let d2 = xk.insert_document(DOC2).unwrap();
        let d3 = xk.insert_document(DOC3).unwrap();
        xk.delete_document(d3).unwrap();
        let oracle = bulk_oracle(&[DOC2]);
        assert_canonical_eq(&xk, &oracle, "after delete d3");
        xk.delete_document(d2).unwrap();
        let fresh = XKeyword::load_xml(BASE, LoadOptions::default()).unwrap();
        assert_canonical_eq(&xk, &fresh, "after delete d2");
        assert!(xk.documents().is_empty());
        // Double delete is a typed error.
        assert_eq!(
            xk.delete_document(d2).unwrap_err(),
            XkError::UnknownDocument(d2)
        );
    }

    #[test]
    fn bad_documents_change_nothing() {
        let xk = XKeyword::load_xml(BASE, LoadOptions::default()).unwrap();
        let before = xk.canonical_results(&["jones", "smith"], 6).unwrap();
        assert!(matches!(
            xk.insert_document("<bib><pap"),
            Err(XkError::BadDocument(_))
        ));
        assert!(matches!(
            xk.insert_document("<alien><zap>q</zap></alien>"),
            Err(XkError::BadDocument(_))
        ));
        assert_eq!(xk.engine().epoch(), 0, "no view was installed");
        assert_eq!(
            xk.canonical_results(&["jones", "smith"], 6).unwrap(),
            before
        );
    }

    #[test]
    fn in_flight_snapshot_survives_concurrent_ingest() {
        let xk = XKeyword::load_xml(BASE, LoadOptions::default()).unwrap();
        let view = xk.engine().view();
        let before = xk.canonical_results(&["jones", "smith"], 6).unwrap();
        xk.insert_document(DOC3).unwrap();
        // The held snapshot still answers from epoch 0.
        let prepared = xk
            .engine()
            .prepare_with(&view, &["jones", "smith"], 6)
            .unwrap();
        assert!(!prepared.plans.is_empty());
        assert_eq!(view.epoch, 0);
        assert_ne!(
            xk.canonical_results(&["incremental", "jones"], 6).unwrap(),
            "",
            "new view sees the new document"
        );
        let _ = before;
    }

    #[test]
    fn wal_replays_history_on_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "xkw-facade-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || LoadOptions {
            wal_dir: Some(dir.clone()),
            ..LoadOptions::default()
        };
        let xk = XKeyword::load_xml(BASE, opts()).unwrap();
        assert_eq!(xk.recoveries(), 0, "fresh WAL is not a recovery");
        let d2 = xk.insert_document(DOC2).unwrap();
        xk.insert_document(DOC3).unwrap();
        xk.delete_document(d2).unwrap();
        let stats = xk.wal_stats().unwrap();
        assert_eq!(stats.appends, 3);
        assert!(stats.fsyncs >= 3, "default policy fsyncs every append");
        drop(xk);

        let xk2 = XKeyword::load_xml(BASE, opts()).unwrap();
        assert_eq!(xk2.recoveries(), 1);
        assert_eq!(xk2.documents().len(), 1);
        let oracle = bulk_oracle(&[DOC3]);
        assert_canonical_eq(&xk2, &oracle, "recovered");

        // Checkpoint compacts to the net state; reopen still agrees.
        xk2.checkpoint().unwrap();
        drop(xk2);
        let xk3 = XKeyword::load_xml(BASE, opts()).unwrap();
        assert_eq!(xk3.documents().len(), 1);
        assert_canonical_eq(&xk3, &oracle, "post-checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
