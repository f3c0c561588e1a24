//! `ingest_mixed`: one writer thread and one reader thread on a WAL-backed
//! instance (`FsyncPolicy::Always`: acknowledged = flushed). The writer
//! issues insert, insert, delete-oldest on a fixed due-time schedule; the
//! reader runs the `topk_hot` sequence closed-loop until the writer is
//! done. Then the instance is dropped without a checkpoint, reopened from
//! the WAL, and checkpointed. Every view install clears the plan cache, so
//! cold CN generation, CTSSN reduction and skeleton building (absent from
//! `topk_hot`) land on reads, and the write path does the writer's work.

use crate::common::{self, Params, Pass, Phases, PoolEntry};
use crate::gen::{self, Document, Sequence, CACHED, K, POOL_FITS, Z};
use crate::report::Outcome;
use crate::staged::Staged;
use crate::stats::{self, pct_or_zero, ratio};
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xkw_core::prelude::*;
use xkw_store::{FsyncPolicy, Wal, WalRecord};

/// Seconds between the due instants of consecutive mutations.
const INTERVAL_S: f64 = 0.25;
/// CN size bound of the recovery probes (`canonical_results` evaluates
/// naively; Z = 8 would take seconds per probe).
const Z_PROBE: usize = 6;
const NOMINAL_OPS_PER_S: f64 = 100.0;

struct State {
    xk: XKeyword,
    pool: Vec<PoolEntry>,
    wal_dir: PathBuf,
}

fn setup(p: &Params) -> (State, Phases) {
    let wal_dir = common::out_dir().join("wal-ingest_mixed");
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("creating the WAL directory inside the checkout");
    let (xk, generate_s, load_s) = common::load_instance(POOL_FITS, Some(wal_dir.clone()));
    let t = Instant::now();
    let pool = common::mix48(&xk, p.seed);
    let warm_s = t.elapsed().as_secs_f64();
    (
        State { xk, pool, wal_dir },
        Phases {
            generate_s,
            load_s,
            warm_s,
        },
    )
}

/// What the writer did.
#[derive(Default)]
struct WriteLog {
    /// ms from due instant to acknowledgement.
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    /// Wall ms of each traced mutation, measured outside its root span.
    op_ms: Vec<f64>,
    failed: u64,
    doc_bytes: u64,
    /// Documents still live, oldest first.
    live: VecDeque<(u64, Document)>,
}

/// Issues `mutations` operations in the pattern insert, insert,
/// delete-oldest, operation `i` due at `start + i * INTERVAL_S`. With a
/// `scratch` log the write is staged: parse, then append and fsync of the
/// same record on the scratch log, then the real call, a span around each.
fn writer(
    xk: &XKeyword,
    seed: u64,
    mutations: usize,
    start: Instant,
    tr: &mut Tracer,
    mut scratch: Option<&mut Wal>,
) -> WriteLog {
    let mut log = WriteLog::default();
    let mut inserted = 0u64;
    for i in 0..mutations {
        let due = start + Duration::from_secs_f64(i as f64 * INTERVAL_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let op = i as u64;
        let began = Instant::now();
        if i % 3 < 2 {
            let doc = gen::document(seed, inserted);
            inserted += 1;
            let id = tr.span("bench.ingest.insert", op, |tr| {
                if let Some(wal) = scratch.as_deref_mut() {
                    tr.span("bench.graph.parse", op, |_| {
                        std::hint::black_box(xkw_graph::parse(&doc.xml).expect("document parses"));
                    });
                    stage_wal(
                        tr,
                        op,
                        wal,
                        &WalRecord::Insert {
                            doc: op,
                            xml: doc.xml.clone(),
                        },
                    );
                }
                tr.span("bench.xkeyword.insert", op, |_| {
                    xk.insert_document(&doc.xml)
                })
            });
            log.insert_ms.push(due.elapsed().as_secs_f64() * 1e3);
            match id {
                Ok(id) => {
                    log.doc_bytes += doc.xml.len() as u64;
                    log.live.push_back((id, doc));
                }
                Err(_) => log.failed += 1,
            }
        } else {
            let (id, _) = log
                .live
                .pop_front()
                .expect("two inserts precede every delete");
            let deleted = tr.span("bench.ingest.delete", op, |tr| {
                if let Some(wal) = scratch.as_deref_mut() {
                    stage_wal(tr, op, wal, &WalRecord::Delete { doc: id });
                }
                tr.span("bench.xkeyword.delete", op, |_| xk.delete_document(id))
            });
            log.delete_ms.push(due.elapsed().as_secs_f64() * 1e3);
            if deleted.is_err() {
                log.failed += 1;
            }
        }
        log.op_ms.push(began.elapsed().as_secs_f64() * 1e3);
    }
    log
}

/// The WAL layer on its own: the scratch log is opened with
/// `FsyncPolicy::Off`, so `append` is the write and `sync` the flush.
fn stage_wal(tr: &mut Tracer, op: u64, wal: &mut Wal, record: &WalRecord) {
    tr.span("bench.wal.append", op, |_| {
        wal.append(record).expect("scratch WAL appends")
    });
    tr.span("bench.wal.fsync", op, |_| {
        wal.sync().expect("scratch WAL syncs")
    });
}

/// The reader: `topk_hot`'s sequence, closed loop, until `stop`. Data
/// changes under it, so an answer is checked against bounds: the base
/// data's results never disappear (only inserted documents are deleted),
/// so at least the oracle's row count and at most `K` rows come back.
fn reader(st: &State, out: &mut Outcome, seed: u64, stop: &AtomicBool) -> Pass {
    let keywords: Vec<Vec<&str>> = st.pool.iter().map(PoolEntry::kw).collect();
    let mut pass = Pass::default();
    let start = Instant::now();
    for rank in Sequence::mix48(seed, 0) {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t = Instant::now();
        let answer = st.xk.engine().query_topk(&keywords[rank], Z, K, CACHED, 1);
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match answer {
            Ok(o) if (st.pool[rank].rows..=K).contains(&o.results.rows.len()) => {
                pass.delivered += o.results.rows.len() as u64;
                pass.metrics.push(o.metrics);
            }
            _ => out.failed += 1,
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass
}

/// Eight probe queries for the recovery check: four that documents still
/// live answer, four author pairs of the pool.
fn probes(st: &State, log: &WriteLog) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = log
        .live
        .iter()
        .rev()
        .take(4)
        .map(|(_, d)| d.probe.to_vec())
        .collect();
    out.extend(
        st.pool
            .iter()
            .filter(|e| e.query.class == gen::Class::AuthorPair)
            .take(8 - out.len())
            .map(|e| e.query.keywords.clone()),
    );
    out
}

fn canonical(xk: &XKeyword, probes: &[Vec<String>]) -> Vec<String> {
    probes
        .iter()
        .map(|q| {
            let kw: Vec<&str> = q.iter().map(String::as_str).collect();
            xk.canonical_results(&kw, Z_PROBE).expect("probe evaluates")
        })
        .collect()
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let st = common::repeat_setup(&mut out, p.setup_reps(), || setup(p));
    let mutations = ((p.seconds / INTERVAL_S) as usize).max(3);

    // The mixed phase: the writer on its own thread, the reader here.
    let mut tr = if p.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let scratch_dir = common::out_dir().join("wal-scratch");
    let mut scratch = p.trace.then(|| {
        let _ = std::fs::remove_dir_all(&scratch_dir);
        std::fs::create_dir_all(&scratch_dir).expect("creating the scratch WAL directory");
        Wal::open(&scratch_dir.join("scratch.wal"), FsyncPolicy::Off)
            .expect("opening the scratch WAL")
            .0
    });
    let stop = AtomicBool::new(false);
    let (log, read) = std::thread::scope(|s| {
        let start = Instant::now() + Duration::from_millis(20);
        let (xk, tr, scratch, stop) = (&st.xk, &mut tr, scratch.as_mut(), &stop);
        let w = s.spawn(move || {
            let log = writer(xk, p.seed, mutations, start, tr, scratch);
            stop.store(true, Ordering::Release);
            log
        });
        let read = reader(&st, &mut out, p.seed, stop);
        (w.join().expect("writer thread"), read)
    });
    drop(scratch);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    out.attempted += mutations as u64;
    out.failed += log.failed;

    // What must survive the restart.
    let probes = probes(&st, &log);
    let documents = st.xk.documents();
    let answers = canonical(&st.xk, &probes);
    let wal = st.xk.wal_stats().expect("the instance has a WAL");
    let installs = st.xk.engine().epoch();
    out.check(wal.appends == mutations as u64 - log.failed, || {
        format!("{} WAL appends for {mutations} mutations", wal.appends)
    });
    out.check(wal.fsyncs >= wal.appends, || {
        format!(
            "{} fsyncs < {} appends under FsyncPolicy::Always",
            wal.fsyncs, wal.appends
        )
    });
    out.check(
        documents == log.live.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        || "documents() differs from the writer's live set".into(),
    );

    // Drop without a checkpoint, reopen from the log alone.
    let State { xk, pool, wal_dir } = st;
    drop(xk);
    let data = gen::dataset().generate();
    let t = Instant::now();
    let xk = XKeyword::load(
        data.graph,
        data.tss,
        gen::load_options(POOL_FITS, Some(wal_dir.clone())),
    )
    .expect("the un-checkpointed WAL replays");
    let recover_s = t.elapsed().as_secs_f64();
    out.check(xk.recoveries() == 1, || {
        format!("recoveries() = {}", xk.recoveries())
    });
    out.check(xk.documents() == documents, || {
        "documents() changed across recovery".into()
    });
    out.check(canonical(&xk, &probes) == answers, || {
        "canonical_results of the probe queries changed across recovery".into()
    });
    let t = Instant::now();
    let checkpointed = xk.checkpoint();
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(checkpointed.is_ok() && xk.documents() == documents, || {
        "checkpoint failed or changed documents()".into()
    });

    if p.trace {
        out.set_n(
            "graph.parse_us_p50",
            pct_or_zero(&tr.durations("bench.graph.parse", 1e-3), 0.50),
            log.insert_ms.len(),
        );
        let append = tr.durations("bench.wal.append", 1e-3);
        out.set_n(
            "wal.append_us_p50",
            pct_or_zero(&append, 0.50),
            append.len(),
        );
        let fsync = tr.durations("bench.wal.fsync", 1e-3);
        out.set_n("wal.fsync_us_p50", pct_or_zero(&fsync, 0.50), fsync.len());
        out.set(
            "wal.fsyncs_per_write",
            ratio(wal.fsyncs as f64, wal.appends as f64),
        );
        out.set("wal.bytes", wal.bytes as f64);
        // Insert minus parse minus WAL append: delta-merge, relation
        // extension, view swap. Per staged insert: the real call's span
        // minus its sibling spans (parse, scratch append, scratch fsync).
        let spans = tr.spans();
        let index: Vec<f64> = (0..spans.len())
            .filter(|&i| spans[i].name == "bench.ingest.insert")
            .map(|i| {
                spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| {
                        let ms = c.dur_ns() as f64 / 1e6;
                        if c.name == "bench.xkeyword.insert" {
                            ms
                        } else {
                            -ms
                        }
                    })
                    .sum()
            })
            .collect();
        out.set_n(
            "ingest.index_ms_p50",
            pct_or_zero(&index, 0.50),
            index.len(),
        );
        out.set("ingest.view_installs", installs as f64);
        out.set_n(
            "ingest.replay_ms_per_record",
            ratio(
                (recover_s - out.get("setup.load_s")) * 1e3,
                wal.appends as f64,
            ),
            wal.appends as usize,
        );
        out.set("ingest.checkpoint_ms", checkpoint_ms);
        common::report_engine(&mut out, &read.metrics, 0);
        read.report_tails(&mut out);
        common::report_footprint(&mut out, &xk);
        let recovered = State {
            xk,
            pool,
            wal_dir: wal_dir.clone(),
        };
        traced_reads(p, &recovered, &mut out, &tr, &log.op_ms);
    } else {
        read.report_end_to_end(&mut out, gen::BLOCK);
        out.set_n(
            "insert_ms_p50",
            pct_or_zero(&log.insert_ms, 0.50),
            log.insert_ms.len(),
        );
        out.set_n(
            "delete_ms_p50",
            pct_or_zero(&log.delete_ms, 0.50),
            log.delete_ms.len(),
        );
        out.set("recover_s", recover_s);
        out.set("wal_amp", ratio(wal.bytes as f64, log.doc_bytes as f64));
        common::fill_foreign_cells(&mut out, false, true);
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    out
}

/// The read half of the traced pass, on the recovered instance: the
/// reader's sequence through the staged pipeline in four rounds, each
/// starting with no skeletons — as a reader finds the plan cache after a
/// view install — and each answer checked against the engine's.
fn traced_reads(p: &Params, st: &State, out: &mut Outcome, writes: &Tracer, write_op_ms: &[f64]) {
    const ROUNDS: usize = 4;
    let ops = p.trace_ops(NOMINAL_OPS_PER_S);
    let mut tr = Tracer::new();
    let mut op_ms = Vec::with_capacity(ops);
    let mut engine_ms = Vec::with_capacity(ops);
    let mut sequence = Sequence::mix48(p.seed, 0);
    let mut staged = Staged::new(&st.xk);
    for round in 0..ROUNDS {
        staged.forget_skeletons();
        for i in 0..ops / ROUNDS {
            let entry = &st.pool[sequence.next().expect("sequences are endless")];
            let kw = entry.kw();
            let t = Instant::now();
            let results = staged.topk(&mut tr, (round * ops + i) as u64, &kw, Z, K);
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let engine = st.xk.engine().query_topk(&kw, Z, K, CACHED, 1);
            engine_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let same = engine.is_ok_and(|o| {
                stats::digest_result_rows(&o.results.rows)
                    == stats::digest_result_rows(&results.rows)
            });
            if !same {
                out.failed += 1;
            }
        }
    }
    common::report_staged(out, &tr, &staged);
    // One file, one accounting: the writer's spans, then the reads'.
    let mut all = Tracer::new();
    all.append(writes);
    all.append(&tr);
    let mut all_ops = write_op_ms.to_vec();
    all_ops.extend(&op_ms);
    common::finish_trace(
        out,
        p,
        &all,
        &all_ops,
        pct_or_zero(&op_ms, 0.50),
        pct_or_zero(&engine_ms, 0.50),
    );
}
