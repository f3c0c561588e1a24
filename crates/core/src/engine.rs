//! The query engine: the shared query-stage core of Fig. 7.
//!
//! [`QueryEngine`] owns the query-processing stage — keyword discoverer →
//! CN generator → CTSSN reduction → optimizer → execution → presentation
//! — behind `Arc`s of the load-stage products (master index, TSS graph,
//! store, connection-relation catalog), so one engine is safely shared
//! across threads serving concurrent queries. On top of the bare pipeline
//! it adds three cross-cutting concerns:
//!
//! * **Plan caching.** CN generation, CTSSN reduction and tiling
//!   enumeration depend only on the *schema-level partition* of the
//!   keywords — which schema nodes can contain which exact keyword
//!   subsets — plus the keyword count and `z`, never on the keyword
//!   strings. [`QueryEngine::prepare`] canonicalizes that partition into
//!   a signature and consults an LRU cache of
//!   [`PlanSkeleton`](crate::optimizer::PlanSkeleton) lists; a hit skips
//!   straight to the cheap per-query
//!   [`instantiate`](crate::optimizer::instantiate) step. Queries with
//!   fresh keywords of a familiar *shape* (e.g. any two author surnames)
//!   plan in microseconds.
//! * **Typed errors.** `query`/`explain`/`prepare` return
//!   `Result<_, `[`XkError`]`>`: empty or oversized queries, unknown
//!   keywords, contradictory execution modes and plan/catalog mismatches
//!   come back as values, never panics — a bad query cannot take down a
//!   shared engine.
//! * **Per-stage observability.** Every query reports a
//!   [`QueryMetrics`]: wall time per stage (discover / plan / exec /
//!   present), plan-cache and partial-result-cache traffic, and the
//!   buffer-pool I/O attributable to *this* query (thread-local pool
//!   counters, so the numbers stay correct under concurrency).
//!   [`QueryEngine::stats`] aggregates them into a cumulative
//!   [`EngineStats`].

use crate::cn::CnGenerator;
use crate::ctssn::Ctssn;
use crate::error::{validate_keywords, XkError};
use crate::exec::{self, ExecMode, Join, QueryResults};
use crate::master_index::MasterIndex;
use crate::optimizer::{build_skeleton, instantiate_with, CtssnPlan, PlanSkeleton};
use crate::postings::PostingsFormatKind;
use crate::relations::RelationCatalog;
use crate::semantics::Mtton;
use crate::target::TargetGraph;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkw_graph::TssGraph;
use xkw_obs::{
    DegradationSummary, ExplainCapture, FlightRecorder, OpProfile, PlanProfile, QueryRecord,
    RecordedMode,
};
use xkw_store::{Db, LruCache, StoreError};

/// Default capacity of the plan cache, in distinct query shapes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// The canonical plan-cache key: the sorted schema-level keyword
/// partition (schema node → sorted achievable keyword bitsets), the
/// keyword count and the CN size bound `z`. Everything the planning
/// pipeline consumes up to (and including) tiling enumeration is a
/// function of exactly these.
type PlanKey = (Vec<(u16, Vec<u16>)>, usize, usize);

/// Per-query, per-stage metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMetrics {
    /// Keyword discovery (containing-list lookups + exact-set partition).
    pub discover: Duration,
    /// Planning: CN generation through optimizer tiling, or plan-cache
    /// lookup + instantiation on a hit.
    pub plan: Duration,
    /// Execution.
    pub exec: Duration,
    /// Presentation (MTTON dedup/sort).
    pub present: Duration,
    /// Whether planning hit the skeleton cache.
    pub plan_cache_hit: bool,
    /// Executable plans after instantiation.
    pub plans: usize,
    /// Partial-result cache hits during execution.
    pub partial_cache_hits: u64,
    /// Partial-result cache misses during execution.
    pub partial_cache_misses: u64,
    /// Buffer-pool hits attributable to this query.
    pub io_hits: u64,
    /// Buffer-pool misses attributable to this query.
    pub io_misses: u64,
    /// Plans skipped outright by the top-k threshold (never claimed for
    /// evaluation). Zero on non-top-k and prune-disabled paths.
    pub plans_pruned: usize,
    /// Plans aborted mid-evaluation by the top-k threshold.
    pub plans_early_stopped: usize,
}

/// Cumulative engine statistics across all queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Queries that completed successfully.
    pub queries: u64,
    /// Queries rejected with an [`XkError`].
    pub errors: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Partial-result cache hits across all queries.
    pub partial_cache_hits: u64,
    /// Partial-result cache misses across all queries.
    pub partial_cache_misses: u64,
    /// Buffer-pool hits attributed to queries.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to queries.
    pub io_misses: u64,
    /// Plans skipped by the top-k threshold across all queries.
    pub plans_pruned: u64,
    /// Plans aborted mid-evaluation by the top-k threshold.
    pub plans_early_stopped: u64,
    /// Total time in keyword discovery.
    pub discover: Duration,
    /// Total time in planning.
    pub plan: Duration,
    /// Total time in execution.
    pub exec: Duration,
    /// Total time in presentation.
    pub present: Duration,
}

impl EngineStats {
    fn absorb(&mut self, m: &QueryMetrics) {
        self.queries += 1;
        if m.plan_cache_hit {
            self.plan_cache_hits += 1;
        } else {
            self.plan_cache_misses += 1;
        }
        self.partial_cache_hits += m.partial_cache_hits;
        self.partial_cache_misses += m.partial_cache_misses;
        self.io_hits += m.io_hits;
        self.io_misses += m.io_misses;
        self.plans_pruned += m.plans_pruned as u64;
        self.plans_early_stopped += m.plans_early_stopped as u64;
        self.discover += m.discover;
        self.plan += m.plan;
        self.exec += m.exec;
        self.present += m.present;
    }
}

/// One query — the engine's whole input. Every combination of the
/// fields is a supported shape; they map one-to-one onto
/// [`exec::ExecRequest`] once the keywords are planned.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec<'a> {
    /// The keywords, in request order.
    pub keywords: &'a [&'a str],
    /// The CN size bound.
    pub z: usize,
    /// How each candidate network is evaluated.
    pub join: Join,
    /// `Some(k)`: the top-k presentation of §6; `None`: every result.
    pub k: Option<usize>,
    /// Top-k threshold pruning (ignored without `k`); rows are
    /// byte-identical either way — `false` is the A/B reference.
    pub prune: bool,
    /// Execution worker threads (at least one; one runs inline).
    pub threads: usize,
    /// Evaluation budget; `None` never stops.
    pub deadline: Option<Duration>,
}

impl<'a> QuerySpec<'a> {
    /// Every result by nested-loop probes, one worker, no deadline.
    pub fn all(keywords: &'a [&'a str], z: usize, mode: ExecMode) -> Self {
        QuerySpec {
            keywords,
            z,
            join: Join::NestedLoop(mode),
            k: None,
            prune: true,
            threads: 1,
            deadline: None,
        }
    }

    /// Every result by full scans + hash joins (the "all results" regime
    /// of §7), one worker, no deadline.
    pub fn all_hash(keywords: &'a [&'a str], z: usize) -> Self {
        QuerySpec {
            join: Join::Hash,
            ..QuerySpec::all(keywords, z, ExecMode::Naive)
        }
    }

    /// The first `k` results across candidate networks, smallest CNs
    /// first, pruned, one worker, no deadline.
    pub fn topk(keywords: &'a [&'a str], z: usize, k: usize, mode: ExecMode) -> Self {
        QuerySpec {
            k: Some(k),
            ..QuerySpec::all(keywords, z, mode)
        }
    }
}

/// A prepared query: instantiated plans plus discovery/planning metrics.
#[derive(Debug)]
pub struct Prepared {
    /// Executable plans in CN-generation (score) order.
    pub plans: Vec<CtssnPlan>,
    /// Whether the skeleton list came out of the plan cache.
    pub plan_cache_hit: bool,
    /// Time in keyword discovery.
    pub discover: Duration,
    /// Time in planning (cache lookup/CN generation + instantiation).
    pub plan: Duration,
}

/// A completed query: results, deduplicated MTTONs, per-stage metrics.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Raw result rows and execution statistics.
    pub results: QueryResults,
    /// Deduplicated MTTONs sorted by (score, target objects).
    pub mttons: Vec<Mtton>,
    /// Per-stage metrics for this query.
    pub metrics: QueryMetrics,
}

/// One consistent snapshot of the queryable load-stage products. Every
/// query resolves the view exactly once on entry and runs discovery,
/// planning and execution against that snapshot, so an ingest installing
/// a new view mid-query can never mix epochs within one answer.
#[derive(Clone)]
pub struct ReadView {
    /// The target-object decomposition of this epoch.
    pub targets: Arc<TargetGraph>,
    /// The master index of this epoch.
    pub master: Arc<MasterIndex>,
    /// The connection-relation catalog of this epoch.
    pub catalog: Arc<RelationCatalog>,
    /// Monotone installation counter; the bulk-loaded view is epoch 0.
    pub epoch: u64,
}

/// The shared query-stage core. See the module docs.
pub struct QueryEngine {
    tss: Arc<TssGraph>,
    db: Arc<Db>,
    /// The current read view. Writers swap the whole `Arc` under a short
    /// write lock; readers clone it once per query and never block each
    /// other.
    view: RwLock<Arc<ReadView>>,
    plan_cache: Mutex<LruCache<PlanKey, Arc<Vec<PlanSkeleton>>>>,
    stats: Mutex<EngineStats>,
    /// The load-time worker-thread default, read by the positional
    /// `query_all`/`query_all_hash` delegates ([`QuerySpec`] names its
    /// own count).
    exec_threads: AtomicUsize,
    /// The always-on flight recorder (see `xkw_obs::recorder`).
    recorder: Arc<FlightRecorder>,
}

impl QueryEngine {
    /// Builds an engine over the load stage's products, with the default
    /// plan-cache capacity.
    pub fn new(
        tss: Arc<TssGraph>,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        db: Arc<Db>,
        catalog: Arc<RelationCatalog>,
    ) -> Self {
        Self::with_plan_cache_capacity(
            tss,
            targets,
            master,
            db,
            catalog,
            DEFAULT_PLAN_CACHE_CAPACITY,
        )
    }

    /// Builds an engine with an explicit plan-cache capacity (0 disables
    /// plan caching — every query plans cold).
    pub fn with_plan_cache_capacity(
        tss: Arc<TssGraph>,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        db: Arc<Db>,
        catalog: Arc<RelationCatalog>,
        capacity: usize,
    ) -> Self {
        QueryEngine {
            tss,
            db,
            view: RwLock::new(Arc::new(ReadView {
                targets,
                master,
                catalog,
                epoch: 0,
            })),
            plan_cache: Mutex::new(LruCache::new(capacity)),
            stats: Mutex::new(EngineStats::default()),
            exec_threads: AtomicUsize::new(1),
            recorder: Arc::new(FlightRecorder::default()),
        }
    }

    /// The engine's flight recorder: per-query records, the slow-query
    /// log, and the windowed serving metrics. Always on by default.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Sets the worker-thread default (clamped to at least 1). Results
    /// are identical for every setting; only wall time changes.
    pub fn set_exec_threads(&self, threads: usize) {
        self.exec_threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The current worker-thread default.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads.load(Ordering::Relaxed)
    }

    /// The TSS graph.
    pub fn tss(&self) -> &Arc<TssGraph> {
        &self.tss
    }

    /// The current read view: one `Arc` clone, no allocation. Hold the
    /// returned snapshot for the duration of one logical operation — a
    /// concurrent ingest swaps the engine's view but can never mutate a
    /// snapshot already handed out.
    pub fn view(&self) -> Arc<ReadView> {
        self.view.read().clone()
    }

    /// The epoch of the currently installed view (0 = the bulk load).
    pub fn epoch(&self) -> u64 {
        self.view.read().epoch
    }

    /// Atomically installs a new read view built by the write path and
    /// returns its epoch. In-flight queries keep their old snapshot;
    /// queries entering after this see only the new one. The plan cache
    /// is cleared — cached skeletons embed relation handles and statistics
    /// of the superseded catalog.
    pub fn install_view(
        &self,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        catalog: Arc<RelationCatalog>,
    ) -> u64 {
        let mut guard = self.view.write();
        let epoch = guard.epoch + 1;
        *guard = Arc::new(ReadView {
            targets,
            master,
            catalog,
            epoch,
        });
        drop(guard);
        self.plan_cache.lock().clear();
        epoch
    }

    /// The target-object decomposition of the current view.
    pub fn targets(&self) -> Arc<TargetGraph> {
        self.view.read().targets.clone()
    }

    /// The master index of the current view.
    pub fn master(&self) -> Arc<MasterIndex> {
        self.view.read().master.clone()
    }

    /// The embedded store.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The connection-relation catalog of the current view.
    pub fn catalog(&self) -> Arc<RelationCatalog> {
        self.view.read().catalog.clone()
    }

    /// Cumulative statistics across all queries on this engine.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// Distinct query shapes currently in the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    /// The first stages of query processing: keyword discoverer → plan
    /// cache (CN generator → CTSSN reduction → tiling enumeration on a
    /// miss) → per-query instantiation.
    ///
    /// # Errors
    /// [`XkError::EmptyQuery`], [`XkError::TooManyKeywords`] for
    /// malformed queries; [`XkError::UnknownKeyword`] when a keyword
    /// occurs nowhere in the data (so no result can exist).
    pub fn prepare(&self, keywords: &[&str], z: usize) -> Result<Prepared, XkError> {
        let view = self.view();
        self.prepare_with(&view, keywords, z)
    }

    /// [`QueryEngine::prepare`] against an explicit snapshot — the form
    /// `query`/`explain` use so discovery, planning and
    /// execution all read the same epoch.
    pub fn prepare_with(
        &self,
        view: &ReadView,
        keywords: &[&str],
        z: usize,
    ) -> Result<Prepared, XkError> {
        validate_keywords(keywords).inspect_err(|_| self.count_error())?;

        // Discover: containing lists + the schema-level partition.
        let t = Instant::now();
        let discover_span = xkw_obs::span!("query.discover", keywords = keywords.len());
        for kw in keywords {
            if view.master.containing_list(kw).is_empty() {
                self.count_error();
                return Err(XkError::UnknownKeyword((*kw).to_owned()));
            }
        }
        let achievable = view.master.achievable_sets(keywords);
        drop(discover_span);
        let discover = t.elapsed();

        // Plan: skeletons from the cache, or built cold and cached. The
        // cache is cleared on every view install, so a cached skeleton is
        // always from this view's epoch.
        let t = Instant::now();
        let mut plan_span = xkw_obs::span!("query.plan", z = z);
        let key = plan_key(&achievable, keywords.len(), z);
        let cached = self.plan_cache.lock().get(&key).cloned();
        let (skeletons, plan_cache_hit) = match cached {
            Some(s) => (s, true),
            None => {
                let gen = CnGenerator::new(self.tss.schema(), &achievable, keywords.len());
                let skeletons: Arc<Vec<PlanSkeleton>> = Arc::new(
                    gen.generate(z)
                        .iter()
                        .filter_map(|cn| Ctssn::from_cn(cn, &self.tss).ok())
                        .filter_map(|c| build_skeleton(&c, &view.catalog))
                        .collect(),
                );
                self.plan_cache.lock().put(key, skeletons.clone());
                (skeletons, false)
            }
        };
        // One seek index serves every skeleton: requirement resolution is
        // memoized across plans, and over packed postings the zig-zag
        // joins skip non-intersecting blocks without decoding them.
        let index = view.master.seek_candidates(keywords);
        let plans: Vec<CtssnPlan> = skeletons
            .iter()
            .filter_map(|s| instantiate_with(s, &view.catalog, &index, None))
            .collect();
        plan_span.record("cache_hit", plan_cache_hit);
        plan_span.record("plans", plans.len());
        drop(plan_span);
        let plan = t.elapsed();

        Ok(Prepared {
            plans,
            plan_cache_hit,
            discover,
            plan,
        })
    }

    /// Runs one query: discover → plan → execute → present, all against
    /// one view snapshot. On deadline or unrecoverable store faults the
    /// query degrades gracefully — rows found in time come back with a
    /// populated [`exec::Degradation`] report instead of being thrown
    /// away. Every completion — success, degraded, or execute-stage
    /// error — appends one flight record.
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors plus the [`exec::execute`]
    /// errors; worker panics come back with the keyword set attached.
    pub fn query(&self, spec: &QuerySpec<'_>) -> Result<QueryOutcome, XkError> {
        self.run(spec, false).map(|report| report.outcome)
    }

    /// EXPLAIN ANALYZE: [`QueryEngine::query`] with per-probe
    /// measurement attached — the same path, the same rows — returning
    /// the outcome plus one operator-tree [`PlanProfile`] per plan.
    /// Summing attributed I/O over the profile trees reproduces the
    /// outcome's [`QueryMetrics`] I/O totals exactly — the profiles are a
    /// decomposition of the query's accounting, not an estimate. Plans
    /// the top-k threshold cut or a deadline skipped appear as `pruned` /
    /// `skipped` entries carrying their score and zero attributed I/O.
    ///
    /// # Errors
    /// Same as [`QueryEngine::query`].
    pub fn explain(&self, spec: &QuerySpec<'_>) -> Result<ExplainReport, XkError> {
        self.run(spec, true)
    }

    /// `query` for top-k with default pruning and no deadline.
    /// Kept for `benchmark/`; remove with the next benchmark re-baseline.
    ///
    /// # Errors
    /// Same as [`QueryEngine::query`].
    pub fn query_topk(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
        threads: usize,
    ) -> Result<QueryOutcome, XkError> {
        self.query_topk_opts(keywords, z, k, mode, threads, None, true)
    }

    /// `query` for top-k, spelled positionally.
    /// Kept for `benchmark/`; remove with the next benchmark re-baseline.
    ///
    /// # Errors
    /// Same as [`QueryEngine::query`].
    #[allow(clippy::too_many_arguments)]
    pub fn query_topk_opts(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
        threads: usize,
        deadline: Option<Duration>,
        prune: bool,
    ) -> Result<QueryOutcome, XkError> {
        self.query(&QuerySpec {
            threads,
            deadline,
            prune,
            ..QuerySpec::topk(keywords, z, k, mode)
        })
    }

    /// `query` for nested-loop enumeration on the engine's load-time
    /// worker count.
    /// Kept for `benchmark/`; remove with the next benchmark re-baseline.
    ///
    /// # Errors
    /// Same as [`QueryEngine::query`].
    pub fn query_all(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
    ) -> Result<QueryOutcome, XkError> {
        self.query(&QuerySpec {
            threads: self.exec_threads(),
            ..QuerySpec::all(keywords, z, mode)
        })
    }

    /// `query` for hash-join enumeration on the engine's load-time
    /// worker count.
    /// Kept for `benchmark/`; remove with the next benchmark re-baseline.
    ///
    /// # Errors
    /// Same as [`QueryEngine::query`].
    pub fn query_all_hash(&self, keywords: &[&str], z: usize) -> Result<QueryOutcome, XkError> {
        self.query(&QuerySpec {
            threads: self.exec_threads(),
            ..QuerySpec::all_hash(keywords, z)
        })
    }

    /// The execute stage: one [`exec::ExecRequest`] through the driver,
    /// profiles dressed in catalog/TSS names when `profiled`.
    fn execute(
        &self,
        view: &ReadView,
        prepared: &Prepared,
        spec: &QuerySpec<'_>,
        profiled: bool,
    ) -> Result<(QueryResults, Vec<PlanProfile>), XkError> {
        let req = exec::ExecRequest {
            plans: &prepared.plans,
            join: spec.join,
            k: spec.k,
            prune: spec.prune,
            threads: spec.threads,
            deadline: spec.deadline,
        };
        if !profiled {
            return exec::execute(&self.db, &view.catalog, &req).map(|r| (r, Vec::new()));
        }
        let (results, raw) = exec::execute_profiled(&self.db, &view.catalog, &req)?;
        let profiles = raw
            .iter()
            .map(|p| self.plan_profile(&view.catalog, &prepared.plans[p.plan], p))
            .collect();
        Ok((results, profiles))
    }

    /// The one prepare → execute → present → record body behind
    /// [`QueryEngine::query`] and [`QueryEngine::explain`].
    fn run(&self, spec: &QuerySpec<'_>, profiled: bool) -> Result<ExplainReport, XkError> {
        let start = Instant::now();
        let query_span = xkw_obs::span!(
            "query",
            keywords = spec.keywords.len(),
            z = spec.z,
            explain = profiled
        );
        // One snapshot per query: discovery, planning and execution all
        // read this view even if an ingest installs a newer one mid-way.
        let view = self.view();
        let prepared = self.prepare_with(&view, spec.keywords, spec.z)?;
        let mut metrics = QueryMetrics {
            discover: prepared.discover,
            plan: prepared.plan,
            plan_cache_hit: prepared.plan_cache_hit,
            plans: prepared.plans.len(),
            ..QueryMetrics::default()
        };

        let t = Instant::now();
        let exec_span = xkw_obs::span!(
            "query.exec",
            plans = prepared.plans.len(),
            explain = profiled
        );
        let executed = self.execute(&view, &prepared, spec, profiled);
        drop(exec_span);
        metrics.exec = t.elapsed();
        let (results, profiles) = match executed {
            Ok(done) => done,
            Err(e) => {
                // Worker-panic errors get the keyword set attached here:
                // the executor sees plans, only the engine knows the query.
                let e = e.with_keywords(spec.keywords);
                self.count_error();
                // Close the query span before recording so a drained
                // span tree includes it.
                drop(query_span);
                self.record_query(spec, profiled, &metrics, Err(&e), start.elapsed(), None);
                return Err(e);
            }
        };

        let t = Instant::now();
        let present_span = xkw_obs::span!("query.present", rows = results.rows.len());
        let mttons = results.mttons();
        drop(present_span);
        metrics.present = t.elapsed();

        metrics.partial_cache_hits = results.stats.cache_hits;
        metrics.partial_cache_misses = results.stats.cache_misses;
        metrics.io_hits = results.stats.io_hits;
        metrics.io_misses = results.stats.io_misses;
        metrics.plans_pruned = results.prune.plans_pruned;
        metrics.plans_early_stopped = results.prune.plans_early_stopped;
        self.stats.lock().absorb(&metrics);
        publish_query_metrics(&metrics, &results);
        drop(query_span);
        let explain = profiled.then(|| ExplainCapture {
            io_hits: metrics.io_hits,
            io_misses: metrics.io_misses,
            profiles: profiles.clone(),
        });
        self.record_query(
            spec,
            profiled,
            &metrics,
            Ok(&results),
            start.elapsed(),
            explain,
        );
        Ok(ExplainReport {
            outcome: QueryOutcome {
                results,
                mttons,
                metrics,
            },
            profiles,
        })
    }

    /// Builds and appends the flight record of one completed query —
    /// the only place a [`QueryRecord`] is built. Called after the query
    /// span closed, so a sampled record can drain the complete span
    /// tree. Skipped entirely (one atomic load) while the recorder is
    /// off.
    fn record_query(
        &self,
        spec: &QuerySpec<'_>,
        profiled: bool,
        metrics: &QueryMetrics,
        outcome: Result<&QueryResults, &XkError>,
        total: Duration,
        explain: Option<ExplainCapture>,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let id = self.recorder.next_id();
        let total_ns = total.as_nanos() as u64;
        let (rows, degradation) = match outcome {
            Ok(r) => (r.rows.as_slice(), summarize_degradation(&r.degradation)),
            Err(_) => (&[][..], None),
        };
        let slow = total_ns >= self.recorder.slow_threshold_ns();
        let degraded = degradation
            .as_ref()
            .is_some_and(|d| d.is_degraded() || d.corrupt);
        // Errors are always force-captured.
        let forced = slow || degraded || outcome.is_err();
        let sampled = forced || self.recorder.should_sample(id);
        // Only sampled records keep spans — this replaces a
        // grow-forever `take_spans` on the serving path with bounded,
        // 1-in-N retention.
        let spans = if sampled && xkw_obs::enabled() {
            xkw_obs::trace::take_spans()
        } else {
            Vec::new()
        };
        // Explain-path records carry their capture immediately; forced
        // serving-path records are flagged for a *deferred* capture,
        // attached at slow-log read/export time, never while serving.
        // Errors never request one — re-running a failing query would
        // just fail again.
        let needs_explain = forced && explain.is_none() && outcome.is_ok();
        self.recorder.push(QueryRecord {
            id,
            keywords: spec.keywords.iter().map(|s| (*s).to_owned()).collect(),
            z: spec.z,
            k: spec.k,
            path: match (profiled, spec.join, spec.k) {
                (true, _, _) => "explain",
                (_, Join::Hash, _) => "hash",
                (_, _, Some(_)) => "topk",
                _ => "all",
            },
            mode: match spec.join {
                Join::NestedLoop(ExecMode::Naive) => RecordedMode::Naive,
                Join::NestedLoop(ExecMode::Cached { capacity }) => {
                    RecordedMode::Cached { capacity }
                }
                Join::Hash => RecordedMode::Hash,
            },
            postings: postings_label(self.master().format()),
            deadline_ns: spec.deadline.map(|d| d.as_nanos() as u64),
            prune: spec.prune && spec.k.is_some(),
            plan_cache_hit: metrics.plan_cache_hit,
            discover_ns: metrics.discover.as_nanos() as u64,
            plan_ns: metrics.plan.as_nanos() as u64,
            exec_ns: metrics.exec.as_nanos() as u64,
            present_ns: metrics.present.as_nanos() as u64,
            total_ns,
            plans: metrics.plans,
            plans_pruned: metrics.plans_pruned,
            plans_early_stopped: metrics.plans_early_stopped,
            rows: rows.len(),
            result_digest: digest_rows(rows),
            io_hits: metrics.io_hits,
            io_misses: metrics.io_misses,
            degradation,
            error: outcome.err().map(XkError::to_string),
            slow,
            forced,
            sampled,
            spans,
            explain,
            explain_error: None,
            needs_explain,
        });
    }

    /// Runs every deferred EXPLAIN capture the recorder has queued
    /// (records force-captured as slow, degraded, or corrupt). Each
    /// capture re-runs exactly the recorded request — same join, `k`,
    /// prune flag and deadline, so a query that degraded under a
    /// deadline cannot stall its capture either — on one worker with
    /// probes attached, and attaches an [`ExplainCapture`] whose
    /// per-operator I/O decomposes the capture run's own totals exactly.
    /// This runs on the *read* path (slow-log render, JSONL export),
    /// never while serving, and bypasses engine stats, published metrics
    /// and recording, so a capture is invisible to every counter.
    /// Returns the number of captures attached.
    pub fn capture_pending_explains(&self) -> usize {
        let mut captured = 0;
        for p in self.recorder.pending_explains() {
            let keywords: Vec<&str> = p.keywords.iter().map(String::as_str).collect();
            let spec = QuerySpec {
                keywords: &keywords,
                z: p.z,
                join: match p.mode {
                    RecordedMode::Naive => Join::NestedLoop(ExecMode::Naive),
                    RecordedMode::Cached { capacity } => {
                        Join::NestedLoop(ExecMode::Cached { capacity })
                    }
                    RecordedMode::Hash => Join::Hash,
                },
                k: p.k,
                prune: p.prune,
                threads: 1,
                deadline: p.deadline_ns.map(Duration::from_nanos),
            };
            let view = self.view();
            let capture = self
                .prepare_with(&view, spec.keywords, spec.z)
                .and_then(|prepared| self.execute(&view, &prepared, &spec, true));
            match capture {
                Ok((results, profiles)) => {
                    let capture = ExplainCapture {
                        io_hits: results.stats.io_hits,
                        io_misses: results.stats.io_misses,
                        profiles,
                    };
                    if self.recorder.attach_explain(p.id, capture) {
                        captured += 1;
                    }
                }
                Err(e) => {
                    self.recorder.explain_failed(p.id, e.to_string());
                }
            }
        }
        captured
    }

    /// The rendered slow-query log: the last `n` force-captured queries
    /// as an aligned table, deferred EXPLAIN captures attached first.
    pub fn slow_log(&self, n: usize) -> String {
        self.capture_pending_explains();
        self.recorder.render_slow_table(n)
    }

    /// JSON-lines export of every retained flight record, deferred
    /// EXPLAIN captures attached first. One JSON object per line.
    pub fn export_query_log(&self) -> String {
        self.capture_pending_explains();
        self.recorder.export_jsonl()
    }

    /// Dresses one plan's raw measurements in catalog/TSS names.
    fn plan_profile(
        &self,
        catalog: &RelationCatalog,
        plan: &CtssnPlan,
        raw: &exec::PlanExecProfile,
    ) -> PlanProfile {
        let role_name = |r: u8| {
            self.tss
                .node(plan.ctssn.tree.roles[r as usize])
                .name
                .clone()
        };
        let children: Vec<OpProfile> = plan
            .tiles
            .iter()
            .zip(&raw.steps)
            .enumerate()
            .map(|(i, (tile, step))| {
                let frag = &catalog.decomposition.fragments[tile.rel];
                let binds: Vec<String> = plan.new_roles[i].iter().map(|&r| role_name(r)).collect();
                OpProfile {
                    label: format!("probe {} binding [{}]", frag.name, binds.join(", ")),
                    invocations: step.probes,
                    rows_in: step.probes,
                    rows_out: step.rows,
                    io_hits: step.io_hits,
                    io_misses: step.io_misses,
                    elapsed_ns: step.nanos,
                    children: Vec::new(),
                }
            })
            .collect();
        // Any I/O the steps did not claim stays on the root, so the tree
        // always sums exactly to the plan's attributed totals.
        let step_hits: u64 = raw.steps.iter().map(|s| s.io_hits).sum();
        let step_misses: u64 = raw.steps.iter().map(|s| s.io_misses).sum();
        PlanProfile {
            plan: raw.plan,
            name: plan.ctssn.display(&self.tss),
            score: raw.score,
            rows_out: raw.rows_out,
            elapsed_ns: raw.elapsed_ns,
            pruned: raw.pruned,
            skipped: raw.skipped,
            root: OpProfile {
                label: format!(
                    "drive {} ({} candidate target objects)",
                    role_name(plan.driver),
                    raw.drivers
                ),
                invocations: 1,
                rows_in: raw.drivers,
                rows_out: raw.rows_out,
                io_hits: raw.stats.io_hits.saturating_sub(step_hits),
                io_misses: raw.stats.io_misses.saturating_sub(step_misses),
                elapsed_ns: raw.elapsed_ns,
                children,
            },
        }
    }

    fn count_error(&self) {
        self.stats.lock().errors += 1;
        if xkw_obs::enabled() {
            xkw_obs::global().counter("xkw_query_errors_total").inc();
        }
    }
}

/// A full EXPLAIN ANALYZE report: the ordinary query outcome plus one
/// operator-tree profile per executed plan.
#[derive(Debug)]
pub struct ExplainReport {
    /// Results, MTTONs and per-stage metrics, exactly as a plain query
    /// would have produced (modulo single-threaded profiled execution).
    pub outcome: QueryOutcome,
    /// Per-plan operator profiles, in plan (score) order.
    pub profiles: Vec<PlanProfile>,
}

impl ExplainReport {
    /// Attributed logical I/O summed over every profile tree. Equals
    /// `outcome.metrics.io_hits + outcome.metrics.io_misses`.
    pub fn io_total(&self) -> u64 {
        self.profiles.iter().map(PlanProfile::io_total).sum()
    }

    /// The full EXPLAIN ANALYZE text: every plan's operator tree plus a
    /// stage-latency footer.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.profiles {
            out.push_str(&p.render());
        }
        let m = &self.outcome.metrics;
        let _ = writeln!(
            out,
            "stages: discover={:?} plan={:?} exec={:?} present={:?}",
            m.discover, m.plan, m.exec, m.present
        );
        let _ = writeln!(
            out,
            "totals: plans={} results={} io={}h+{}m partial_cache={}h/{}m plan_cache_hit={}",
            m.plans,
            self.outcome.results.rows.len(),
            m.io_hits,
            m.io_misses,
            m.partial_cache_hits,
            m.partial_cache_misses,
            m.plan_cache_hit
        );
        out
    }
}

/// Static label for the postings format backing the master index.
fn postings_label(kind: PostingsFormatKind) -> &'static str {
    match kind {
        PostingsFormatKind::Raw => "raw",
        PostingsFormatKind::Packed => "packed",
    }
}

/// Flattens the executor's degradation report into the obs-layer
/// summary: faults render to strings, corruption is classified from the
/// store error. `None` when the query ran clean (no retries either).
fn summarize_degradation(d: &exec::Degradation) -> Option<DegradationSummary> {
    if !d.is_degraded() && d.retries == 0 {
        return None;
    }
    Some(DegradationSummary {
        deadline_exceeded: d.deadline_exceeded,
        plans_skipped: d.plans_skipped,
        plans_incomplete: d.plans_incomplete,
        corrupt: d
            .faults
            .iter()
            .any(|(_, e)| matches!(e, StoreError::CorruptPage { .. })),
        faults: d
            .faults
            .iter()
            .map(|(i, e)| format!("plan {i}: {e}"))
            .collect(),
        retries: d.retries,
    })
}

/// FNV-1a over the result rows' (plan, assignment, score) — the
/// byte-identity fingerprint two runs of the same query can be compared
/// by without retaining the rows themselves.
fn digest_rows(rows: &[exec::ResultRow]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        eat(&mut h, r.plan as u64);
        eat(&mut h, r.score as u64);
        eat(&mut h, r.assignment.len() as u64);
        for &a in &r.assignment {
            eat(&mut h, u64::from(a));
        }
    }
    h
}

/// Feeds one query's metrics into the global `xkw-obs` registry. A no-op
/// (single relaxed atomic load) unless observability is enabled.
fn publish_query_metrics(m: &QueryMetrics, results: &QueryResults) {
    if !xkw_obs::enabled() {
        return;
    }
    let reg = xkw_obs::global();
    reg.counter("xkw_queries_total").inc();
    if m.plan_cache_hit {
        reg.counter("xkw_plan_cache_hits_total").inc();
    } else {
        reg.counter("xkw_plan_cache_misses_total").inc();
    }
    let total = m.discover + m.plan + m.exec + m.present;
    reg.histogram("xkw_query_latency_ns")
        .observe(total.as_nanos() as u64);
    reg.histogram("xkw_stage_discover_ns")
        .observe(m.discover.as_nanos() as u64);
    reg.histogram("xkw_stage_plan_ns")
        .observe(m.plan.as_nanos() as u64);
    reg.histogram("xkw_stage_exec_ns")
        .observe(m.exec.as_nanos() as u64);
    reg.histogram("xkw_stage_present_ns")
        .observe(m.present.as_nanos() as u64);
    reg.histogram("xkw_query_plans").observe(m.plans as u64);
    reg.histogram("xkw_query_probe_rows")
        .observe(results.stats.rows);
    reg.histogram("xkw_query_results")
        .observe(results.rows.len() as u64);
    reg.histogram("xkw_query_io")
        .observe(m.io_hits + m.io_misses);
    if results.prune.enabled {
        reg.counter("xkw_plans_pruned_total")
            .add(results.prune.plans_pruned as u64);
        reg.counter("xkw_plans_early_stopped_total")
            .add(results.prune.plans_early_stopped as u64);
        if let Some((score, _plan)) = results.prune.threshold {
            reg.gauge("xkw_topk_threshold").set(score as u64);
        }
    }
    let deg = &results.degradation;
    if deg.is_degraded() {
        reg.counter("xkw_queries_degraded_total").inc();
        reg.counter("xkw_plans_skipped_total")
            .add(deg.plans_skipped as u64);
        reg.counter("xkw_plans_incomplete_total")
            .add(deg.plans_incomplete as u64);
        reg.counter("xkw_query_faults_total")
            .add(deg.faults.len() as u64);
    }
}

/// Canonicalizes the achievable-set partition into the plan-cache key:
/// sorted `(schema node, sorted bitsets)` pairs.
fn plan_key(
    achievable: &std::collections::HashMap<xkw_graph::SchemaNodeId, std::collections::HashSet<u16>>,
    nkeys: usize,
    z: usize,
) -> PlanKey {
    let mut sig: Vec<(u16, Vec<u16>)> = achievable
        .iter()
        .map(|(sn, sets)| {
            let mut v: Vec<u16> = sets.iter().copied().collect();
            v.sort_unstable();
            (sn.0, v)
        })
        .collect();
    sig.sort_unstable();
    (sig, nkeys, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use crate::relations::PhysicalPolicy;
    use crate::target::ToId;
    use xkw_datagen::tpch;

    fn engine() -> QueryEngine {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Arc::new(Db::new(256));
        for id in 0..targets.len() as ToId {
            db.blobs().put(id, targets.to_xml(&graph, id));
        }
        let catalog = Arc::new(RelationCatalog::materialize(
            &db,
            &targets,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "eng",
        ));
        QueryEngine::new(Arc::new(tss), Arc::new(targets), master.into(), db, catalog)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }

    const CACHED: ExecMode = ExecMode::Cached { capacity: 1024 };

    #[test]
    fn query_reports_stage_metrics() {
        let e = engine();
        let out = e
            .query(&QuerySpec::all(&["john", "vcr"], 8, CACHED))
            .unwrap();
        assert_eq!(out.mttons.iter().map(|m| m.score).min(), Some(6));
        assert!(!out.metrics.plan_cache_hit, "first query plans cold");
        assert!(out.metrics.plans > 0);
        assert!(out.metrics.io_hits + out.metrics.io_misses > 0);
        let s = e.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.plan_cache_misses, 1);
    }

    /// EXPLAIN is the query path with measurement attached: for every
    /// kind of spec the rows equal the plain query's, summed per-operator
    /// I/O equals the query's own total, there is one profile per plan,
    /// and the flight record carries the capture.
    #[test]
    fn explain_is_the_same_path_and_decomposes_io() {
        let e = engine();
        let kws = ["us", "vcr"];
        for spec in [
            QuerySpec::all(&kws, 8, CACHED),
            QuerySpec::all_hash(&kws, 8),
            QuerySpec {
                threads: 2,
                ..QuerySpec::topk(&kws, 8, 1, CACHED)
            },
            QuerySpec {
                prune: false,
                ..QuerySpec::topk(&kws, 8, 3, ExecMode::Naive)
            },
        ] {
            let report = e.explain(&spec).unwrap();
            let m = &report.outcome.metrics;
            assert_eq!(report.io_total(), m.io_hits + m.io_misses, "{spec:?}");
            assert!(report.io_total() > 0);
            assert_eq!(report.profiles.len(), m.plans);
            let plain = e.query(&spec).unwrap();
            assert_eq!(report.outcome.results.rows, plain.results.rows, "{spec:?}");
            assert_eq!(report.outcome.mttons, plain.mttons);
            // Pruned plans carry zero I/O, so the sum above survives
            // pruning; every one of them is counted.
            if report.outcome.results.prune.enabled {
                assert_eq!(
                    m.plans_pruned,
                    report.profiles.iter().filter(|p| p.pruned).count()
                );
            }
            let text = report.render();
            assert!(text.contains("drive "), "{text}");
            assert!(text.contains("stages:"), "{text}");
            match spec.join {
                Join::NestedLoop(_) => assert!(text.contains("probe "), "{text}"),
                Join::Hash => assert!(!text.contains("probe "), "{text}"),
            }
            let records = e.recorder().records();
            let [.., explained, queried] = records.as_slice() else {
                panic!("two records per spec");
            };
            assert_eq!(explained.path, "explain");
            assert!(explained.explain.is_some() && queried.explain.is_none());
            assert_eq!(explained.result_digest, queried.result_digest);
        }
        assert_eq!(e.stats().queries, 8, "explain counts as a query");
    }

    /// Once a row lands, every later plan's bound exceeds the k=1
    /// threshold — so every plan after the first emitting one shows up
    /// pruned in the top-1 EXPLAIN.
    #[test]
    fn explain_marks_pruned_plans() {
        let e = engine();
        let report = e
            .explain(&QuerySpec::topk(&["us", "vcr"], 8, 1, CACHED))
            .unwrap();
        let first = report.outcome.results.rows[0].plan;
        assert!(report.profiles.len() > first + 1);
        for p in &report.profiles {
            assert_eq!(p.pruned, p.plan > first, "plan {}", p.plan);
        }
        assert!(report.render().contains("pruned by top-k threshold"));
    }

    #[test]
    fn typed_errors_not_panics() {
        let e = engine();
        assert_eq!(e.prepare(&[], 8).unwrap_err(), XkError::EmptyQuery);
        let many: Vec<&str> = vec!["john"; 17];
        assert_eq!(
            e.prepare(&many, 8).unwrap_err(),
            XkError::TooManyKeywords { count: 17 }
        );
        assert_eq!(
            e.prepare(&["john", "florp"], 8).unwrap_err(),
            XkError::UnknownKeyword("florp".to_owned())
        );
        let zero_cache = ExecMode::Cached { capacity: 0 };
        assert!(matches!(
            e.query(&QuerySpec::all(&["john", "vcr"], 8, zero_cache)),
            Err(XkError::BadMode(_))
        ));
        assert_eq!(e.stats().errors, 4);
        assert_eq!(e.stats().queries, 0);
    }

    #[test]
    fn plan_cache_hits_on_same_shape() {
        let e = engine();
        // "tv" and "vcr" both live in part names (vcr also in a descr) —
        // re-running the same keywords must hit; swapping their order
        // keeps the partition (bitsets swap per node, but the pair of
        // achievable sets per schema node differs) — so only assert the
        // identical query hits.
        let first = e.prepare(&["tv", "vcr"], 8).unwrap();
        assert!(!first.plan_cache_hit);
        let second = e.prepare(&["tv", "vcr"], 8).unwrap();
        assert!(second.plan_cache_hit);
        assert_eq!(first.plans.len(), second.plans.len());
        // A different z is a different shape.
        let other_z = e.prepare(&["tv", "vcr"], 4).unwrap();
        assert!(!other_z.plan_cache_hit);
        assert_eq!(e.plan_cache_len(), 2);
    }

    #[test]
    fn capacity_zero_disables_plan_cache() {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Arc::new(Db::new(256));
        let catalog = Arc::new(RelationCatalog::materialize(
            &db,
            &targets,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "cold",
        ));
        let e = QueryEngine::with_plan_cache_capacity(
            Arc::new(tss),
            Arc::new(targets),
            master.into(),
            db,
            catalog,
            0,
        );
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        assert_eq!(e.plan_cache_len(), 0);
    }

    #[test]
    fn topk_and_hash_agree_with_all() {
        let e = engine();
        let kws = ["us", "vcr"];
        let all = e.query(&QuerySpec::all(&kws, 8, ExecMode::Naive)).unwrap();
        let hash = e.query(&QuerySpec::all_hash(&kws, 8)).unwrap();
        assert_eq!(all.mttons, hash.mttons);
        // Top-k contents: exactly the first k rows of the full result in
        // (score, plan, assignment) order, for every thread count — and
        // pruning is invisible in them.
        let mut sorted = all.results.rows.clone();
        sorted.sort_by(|a, b| {
            (a.score, a.plan, &a.assignment).cmp(&(b.score, b.plan, &b.assignment))
        });
        for k in [1, 3, 5, 20] {
            let mut expect = sorted.clone();
            expect.truncate(k);
            for threads in [1, 2, 8] {
                for prune in [true, false] {
                    let top = e
                        .query(&QuerySpec {
                            threads,
                            prune,
                            ..QuerySpec::topk(&kws, 8, k, CACHED)
                        })
                        .unwrap();
                    assert_eq!(top.results.rows, expect, "k={k} threads={threads}");
                    assert_eq!(top.results.prune.enabled, prune);
                }
            }
        }
        assert_eq!(e.stats().queries, 26);
    }

    /// Installing a view bumps the epoch, clears the plan cache, and
    /// leaves previously handed-out snapshots untouched.
    #[test]
    fn install_view_swaps_snapshot_and_clears_plan_cache() {
        let e = engine();
        assert_eq!(e.epoch(), 0);
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        assert!(e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        let old = e.view();
        let epoch = e.install_view(e.targets(), e.master(), e.catalog());
        assert_eq!(epoch, 1);
        assert_eq!(e.epoch(), 1);
        assert_eq!(old.epoch, 0, "held snapshots keep their epoch");
        assert_eq!(e.plan_cache_len(), 0, "install clears the plan cache");
        // Same shape plans cold again, and queries still answer correctly.
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        let out = e
            .query(&QuerySpec::all(&["john", "vcr"], 8, CACHED))
            .unwrap();
        assert_eq!(out.mttons.iter().map(|m| m.score).min(), Some(6));
    }

    /// The worker count never changes an outcome, on either join; the
    /// frozen delegates read the engine-level setting.
    #[test]
    fn threads_do_not_change_results() {
        let e = engine();
        let kws = ["us", "vcr"];
        let reference = e.query(&QuerySpec::all(&kws, 8, CACHED)).unwrap();
        let hash_reference = e.query(&QuerySpec::all_hash(&kws, 8)).unwrap();
        assert_eq!(e.exec_threads(), 1);
        for threads in [2, 4, 8] {
            let got = e
                .query(&QuerySpec {
                    threads,
                    ..QuerySpec::all(&kws, 8, CACHED)
                })
                .unwrap();
            assert_eq!(got.results.rows, reference.results.rows);
            assert_eq!(got.mttons, reference.mttons);
            e.set_exec_threads(threads);
            assert_eq!(e.exec_threads(), threads);
            let hash = e.query_all_hash(&kws, 8).unwrap();
            assert_eq!(hash.results.rows, hash_reference.results.rows);
        }
        e.set_exec_threads(0); // clamped, never zero workers
        assert_eq!(e.exec_threads(), 1);
    }
}
