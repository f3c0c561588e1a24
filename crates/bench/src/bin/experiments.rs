//! Regenerates the series of the paper's evaluation figures (§7).
//!
//! ```text
//! experiments [fig15a] [fig15b] [fig16a] [fig16b] [space] [decompose] \
//!             [explain] [faults] [topk] [slowlog] [serve] [ingest] [all]
//! ```
//!
//! * **fig15a** — top-K execution time (ms) vs K per decomposition
//!   (XKeyword / Complete / MinClust / MinNClustIndx / MinNClustNIndx),
//!   disk-resident scenario (buffer-pool miss penalty on);
//! * **fig15b** — all-results time vs maximum CTSSN size, RAM-resident;
//! * **fig16a** — speedup of the partial-result-caching execution over
//!   the naive one vs maximum CTSSN size;
//! * **fig16b** — average time to expand a Paper node of the
//!   Author–Paper^i–Author presentation graph under the inlined /
//!   minimal / combination decompositions;
//! * **space** — decomposition space accounting (id cells, disk pages).

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::{Duration, Instant};
use xkw_bench::workload::{self as w, Config};
use xkw_core::ctssn::{Ctssn, KwRequirement};
use xkw_core::exec::{self, ExecMode, PartialCache};
use xkw_core::optimizer::build_plan_anchored;
use xkw_core::prelude::*;
use xkw_core::presentation::expand_on_demand;
use xkw_core::tree::{TreeEdge, TssTree};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    if want("decompose") {
        w::time_decompositions();
    }
    if want("space") {
        space();
    }
    if want("fig15a") {
        fig15a();
    }
    if want("fig15b") {
        fig15b();
    }
    if want("fig16a") {
        fig16a();
    }
    if want("fig16b") {
        fig16b();
    }
    if want("tpch") {
        tpch_section();
    }
    if want("explain") {
        explain_section();
    }
    if want("faults") {
        faults_section();
    }
    if want("topk") {
        topk_section();
    }
    if want("slowlog") {
        slowlog_section();
    }
    if want("serve") {
        serve_section();
    }
    if want("ingest") {
        ingest_section();
    }
}

/// Durable-write-path walkthrough: incremental document ingestion over
/// a WAL, a simulated torn append, crash recovery on reopen, and a
/// checkpoint compacting the log to the net live documents (reproduced
/// in EXPERIMENTS.md §"Durable ingest").
fn ingest_section() {
    use xkw_store::{FaultKind, FsyncPolicy, WalFault};
    println!("\n== Durable ingest: WAL, crash recovery, checkpoint (XKeyword, DBLP) ==");
    let dir = std::env::temp_dir().join(format!("xkw-experiments-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let data = w::bench_dblp_config();
    let load = || {
        let d = data.generate();
        let mut opts = Config::XKeyword.load_options();
        opts.wal_dir = Some(dir.clone());
        opts.fsync = FsyncPolicy::Always;
        XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms")
    };
    let delta = |i: usize| {
        format!(
            "<conference><cname>DELTACONF{i}</cname><year><yval>2004</yval>\
             <paper idrefs=\"da{i}\"><title>incremental maintenance delta {i}</title>\
             <pages>1-12</pages><url>db/conf/delta/p{i}.html</url></paper></year>\
             </conference><author id=\"da{i}\"><aname>Ada Deltauthor</aname></author>"
        )
    };
    let kws = ["incremental", "maintenance"];
    let hits = |xk: &XKeyword| {
        xk.engine()
            .query(&QuerySpec::all(&kws, w::Z, w::cached()))
            .unwrap()
            .results
            .mttons()
            .len()
    };

    let t = Instant::now();
    let xk = load();
    println!(
        "bulk load: {} target objects, {} postings in {:.0}ms (wal: {})",
        xk.targets().len(),
        xk.master().posting_count(),
        t.elapsed().as_secs_f64() * 1e3,
        dir.display()
    );
    println!(
        "\"{} {}\" before ingest: {} results",
        kws[0],
        kws[1],
        hits(&xk)
    );
    for i in 0..2 {
        let t = Instant::now();
        let doc = xk.insert_document(&delta(i)).expect("delta conforms");
        println!(
            "insert delta {i} -> document {doc} in {:.1}ms; {} results",
            t.elapsed().as_secs_f64() * 1e3,
            hits(&xk)
        );
    }
    let pre_crash = hits(&xk);

    // A torn append: the record hits the disk with its payload mangled,
    // as if the process died mid-write. The mutation reports the failure
    // and nothing is applied; the instance is then abandoned.
    let next_append = xk.wal_stats().expect("WAL configured").appends;
    xk.set_wal_fault(Some(WalFault {
        kind: FaultKind::WalTorn,
        at: next_append,
    }));
    match xk.insert_document(&delta(2)) {
        Ok(_) => unreachable!("torn append must fail"),
        Err(e) => println!("insert delta 2 under a torn-write fault: {e}"),
    }
    let wal_file = dir.join(xkw_core::xkeyword::WAL_FILE);
    let on_disk = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    println!(
        "abandoning instance at {} on-disk wal bytes (mangled tail included); {} results survive",
        on_disk(&wal_file),
        hits(&xk)
    );
    drop(xk);

    // Reopen: the two durable records replay, the torn tail is truncated.
    let xk = load();
    println!(
        "reopen: {} documents recovered ({} replays), wal truncated to {} bytes; {} results",
        xk.documents().len(),
        xk.recoveries(),
        on_disk(&wal_file),
        hits(&xk)
    );
    assert_eq!(
        hits(&xk),
        pre_crash,
        "recovery must restore the pre-crash view"
    );

    // Delete one document and checkpoint: the log compacts to the net
    // live set (one insert record), not the full history.
    xk.delete_document(1).expect("doc 1 is live");
    let before = xk.wal_stats().expect("WAL configured").bytes;
    xk.checkpoint().expect("checkpoint");
    let after = xk.wal_stats().expect("WAL configured").bytes;
    println!(
        "delete document 1 + checkpoint: wal {before} -> {after} bytes, {} live documents, {} results",
        xk.documents().len(),
        hits(&xk)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serving-layer walkthrough: an in-process `xkw-serve` server over the
/// DBLP workload, a closed-loop capacity probe, then an open-loop burst
/// at 2× capacity against a tightened in-flight bound — showing typed
/// shedding with exact loss accounting (reproduced in EXPERIMENTS.md
/// §"Serving under load").
fn serve_section() {
    use std::sync::Arc;
    use xkw_bench::loadgen::{self, QueryMix, RequestSpec};
    use xkw_serve::{start, ServerConfig};
    println!("\n== Serving under load: admission control and typed shedding (XKeyword, DBLP) ==");
    let data = w::bench_dblp_config();
    let d = data.generate();
    let xk = Arc::new(
        XKeyword::load(d.graph, d.tss, Config::XKeyword.load_options()).expect("DBLP conforms"),
    );
    xk.catalog().set_roundtrip(Duration::from_micros(100));
    let mix = QueryMix::author_pairs(&xk, 24, 7, 1.1);
    let spec = RequestSpec {
        k: 10,
        ..RequestSpec::default()
    };

    let mut srv = start(
        Arc::clone(&xk),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 64,
            exec_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    println!("server on {} (max_inflight 64)", srv.addr());
    let closed = loadgen::closed_loop(srv.addr(), &mix, spec, 4, 50, 0xC1);
    println!(
        "closed loop, 4 clients x 50:  {:>6.1} qps, p50 {:.1}ms p99 {:.1}ms, {} shed",
        closed.goodput_qps,
        closed.latency.p50_ns as f64 / 1e6,
        closed.latency.p99_ns as f64 / 1e6,
        closed.tally.shed
    );
    srv.shutdown();

    let mut srv = start(
        Arc::clone(&xk),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 2,
            admission_wait: Duration::ZERO,
            exec_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    println!(
        "server on {} (max_inflight 2, zero admission wait)",
        srv.addr()
    );
    let open = loadgen::open_loop(
        srv.addr(),
        &mix,
        spec,
        closed.goodput_qps * 2.0,
        300,
        8,
        4,
        0x0B,
    );
    let s = srv.stats();
    srv.shutdown();
    println!(
        "open loop at 2x capacity:     {:>6.1} qps offered, {:.1} qps goodput ({:.0}% of capacity)",
        open.offered_qps,
        open.goodput_qps,
        100.0 * open.goodput_qps / closed.goodput_qps.max(1e-9)
    );
    println!(
        "  {} sent = {} ok + {} shed + {} errors (accounted: {})",
        open.tally.sent,
        open.tally.ok,
        open.tally.shed,
        open.tally.errors,
        open.fully_accounted()
    );
    println!(
        "  server counters agree: requests {} responses {} shed {} inflight_peak {}",
        s.requests, s.responses, s.shed, s.inflight_peak
    );
}

/// Flight-recorder walkthrough: a batch of queries over a mildly slow
/// store, with the slow threshold tightened so the tail lands in the
/// slow-query log and picks up its deferred auto-EXPLAIN, plus one
/// deadline-degraded query for a forced capture (reproduced in
/// EXPERIMENTS.md §"Slow-query log").
fn slowlog_section() {
    use xkw_store::{FaultSpec, FaultTarget};
    println!("\n== Slow-query log: forced captures with auto-EXPLAIN (XKeyword, DBLP) ==");
    let data = w::bench_dblp_config();
    let mut opts = Config::XKeyword.load_options();
    opts.pool_pages = 64;
    let d = data.generate();
    let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
    let engine = xk.engine();
    engine.recorder().set_slow_threshold_ns(5_000_000);
    println!("(5ms slow threshold; 1ms slow pages under a 50ms deadline for the last query)");

    let queries = w::pick_author_queries(&xk, QUERIES, SEED);
    for (a, b) in &queries {
        let _ = engine.query(&QuerySpec {
            threads: 4,
            ..QuerySpec::topk(&[a, b], w::Z, 20, w::cached())
        });
    }
    // One deadline-degraded query: pervasive 1ms stalls vs 50ms budget.
    let (a, b) = &queries[0];
    xk.db
        .install_faults(FaultSpec::new(0xA5A5).slow(FaultTarget::All, 1.0, 1_000_000));
    let _ = engine.query(&QuerySpec {
        deadline: Some(Duration::from_millis(50)),
        ..QuerySpec::all(&[a, b], w::Z, w::cached())
    });
    xk.db.faults().clear();

    // Reading the log triggers the deferred EXPLAIN captures.
    print!("{}", engine.slow_log(10));
    print!("{}", engine.recorder().dashboard());
    let slow = engine.recorder().slow_records(10);
    println!(
        "({} of {} records are forced captures; JSONL export via `--query-log` or export_query_log)",
        slow.len(),
        engine.recorder().len()
    );
}

/// Top-k early termination: per-k work and latency with the threshold
/// cutoff on vs the `--no-prune` baseline, on the Fig. 15(a)
/// disk-resident XKeyword scenario with a cold pool per batch
/// (reproduced in EXPERIMENTS.md §"Top-k early termination"; the CI
/// gate lives in the `topk_pruning` bench).
fn topk_section() {
    println!("\n== Top-k early termination: pruned vs --no-prune (XKeyword, DBLP) ==");
    println!(
        "(disk-resident scenario: 100us round trip, 128-page pool cleared per batch, \
         2ms miss penalty, 8 threads)"
    );
    let data = w::bench_dblp_config();
    let mut opts = Config::XKeyword.load_options();
    opts.pool_pages = 128;
    let d = data.generate();
    let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
    xk.db.pool().set_miss_penalty(Duration::from_millis(2));
    xk.catalog().set_roundtrip(Duration::from_micros(100));
    let queries = w::pick_author_queries(&xk, QUERIES, SEED);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let total_plans: usize = plan_sets.iter().map(Vec::len).sum();
    println!(
        "({} queries, {total_plans} plans instantiated)",
        plan_sets.len()
    );
    println!(
        "{:<8}{:<10}{:>9}{:>9}{:>9}{:>11}{:>12}",
        "k", "mode", "claimed", "pruned", "aborted", "evaluated", "batch-ms"
    );
    for k in [1usize, 10, 100] {
        for prune in [false, true] {
            xk.db.pool().clear();
            let (mut claimed, mut pruned, mut aborted) = (0usize, 0usize, 0usize);
            let t = Instant::now();
            for plans in &plan_sets {
                let res = w::run(
                    &xk,
                    &ExecRequest {
                        threads: 8,
                        prune,
                        ..ExecRequest::topk(plans, w::cached_join(), k)
                    },
                );
                claimed += res.prune.plans_claimed;
                pruned += res.prune.plans_pruned;
                aborted += res.prune.plans_early_stopped;
                std::hint::black_box(res.rows.len());
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<8}{:<10}{:>9}{:>9}{:>9}{:>11}{:>12.1}",
                k,
                if prune { "pruned" } else { "no-prune" },
                claimed,
                pruned,
                aborted,
                claimed - aborted,
                ms
            );
        }
    }
}

/// Scripted fault run: degraded-vs-complete result counts when slow
/// pages and transient read errors meet a tight query deadline
/// (reproduced in EXPERIMENTS.md §"Fault injection").
fn faults_section() {
    use xkw_store::{FaultKind, FaultSpec, FaultTarget};
    println!("\n== Fault injection: degraded vs complete results (XKeyword, DBLP) ==");
    let data = w::bench_dblp_config();
    let d = data.generate();
    let mut opts = Config::XKeyword.load_options();
    // A pool this small misses constantly, so every fault rule on the
    // read path actually fires.
    opts.pool_pages = 8;
    let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
    let queries = w::pick_author_queries(&xk, QUERIES, SEED);
    let spec = FaultSpec::new(0xA5A5)
        .slow(FaultTarget::All, 1.0, 2_000_000)
        .rule(FaultKind::TransientRead, FaultTarget::All, 0.2);
    let deadline = Duration::from_millis(150);
    println!(
        "(8-page pool; seed=0xA5A5, 2ms slow pages p=1, transient reads p=0.2; 150ms deadline)"
    );
    println!(
        "{:<24}{:>10}{:>10}{:>9}{:>9}{:>9}",
        "query", "complete", "degraded", "skipped", "incompl", "retries"
    );
    for (a, b) in &queries {
        let complete = xk
            .engine()
            .query(&QuerySpec::all(&[a, b], w::Z, w::cached()))
            .expect("fault-free query completes")
            .results
            .rows
            .len();
        xk.db.install_faults(spec.clone());
        let bounded = xk.engine().query(&QuerySpec {
            deadline: Some(deadline),
            ..QuerySpec::all(&[a, b], w::Z, w::cached())
        });
        xk.db.faults().clear();
        let label = format!("{a} {b}");
        match bounded {
            Ok(out) => {
                let deg = &out.results.degradation;
                println!(
                    "{:<24}{:>10}{:>10}{:>9}{:>9}{:>9}",
                    label,
                    complete,
                    out.results.rows.len(),
                    deg.plans_skipped,
                    deg.plans_incomplete,
                    deg.retries
                );
            }
            Err(e) => println!("{label:<24}{complete:>10}{:>10}  ({e})", 0),
        }
    }
}

/// EXPLAIN ANALYZE profile of one Fig. 16 author query — the
/// per-operator evidence behind the figure's probe/IO aggregates
/// (reproduced in EXPERIMENTS.md §"EXPLAIN ANALYZE").
fn explain_section() {
    println!("\n== EXPLAIN ANALYZE: one Fig. 16 author query (MinClust) ==");
    let data = w::bench_dblp_config();
    let xk = w::dblp_instance(Config::MinClust, &data);
    let (a, b) = w::pick_author_queries(&xk, 1, SEED).remove(0);
    println!("query: \"{a} {b}\", Z = {}", w::Z);
    let report = xk
        .engine()
        .explain(&QuerySpec::all(&[&a, &b], w::Z, w::cached()))
        .expect("explain");
    print!("{}", report.render());
    let m = &report.outcome.metrics;
    assert_eq!(
        report.io_total(),
        m.io_hits + m.io_misses,
        "per-operator I/O must decompose the query total"
    );
}

const QUERIES: usize = 5;
const SEED: u64 = 7;

fn avg_ms(samples: &[Duration]) -> f64 {
    samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64 * 1e3
}

/// Decomposition space accounting (the §5.1 tradeoff).
fn space() {
    println!("\n== Decomposition space (DBLP, M=6, B=2) ==");
    println!(
        "{:<16}{:>12}{:>12}{:>12}",
        "decomposition", "fragments", "id-cells", "disk-pages"
    );
    let data = w::bench_dblp_config();
    for cfg in Config::FIG15 {
        let xk = w::dblp_instance(cfg, &data);
        println!(
            "{:<16}{:>12}{:>12}{:>12}",
            cfg.name(),
            xk.catalog().decomposition.fragments.len(),
            xk.catalog().space_cells(),
            xk.db.disk_pages()
        );
    }
}

/// Fig. 15(a): top-K time vs K per decomposition.
fn fig15a() {
    println!("\n== Figure 15(a): top-K execution time (ms) vs K ==");
    println!(
        "(disk-resident middleware scenario: 100us round trip, 128-page pool, 2ms miss penalty)"
    );
    let data = w::bench_dblp_config();
    let ks = [1usize, 10, 20, 40, 60, 80, 100];
    print!("{:<16}", "decomposition");
    for k in ks {
        print!("{:>10}", format!("K={k}"));
    }
    println!();
    for cfg in Config::FIG15 {
        let mut opts = cfg.load_options();
        opts.pool_pages = 128;
        let d = data.generate();
        let xk = XKeyword::load(d.graph, d.tss, opts).unwrap();
        xk.db.pool().set_miss_penalty(Duration::from_millis(2));
        xk.catalog().set_roundtrip(Duration::from_micros(100));
        let queries = w::pick_author_queries(&xk, QUERIES, SEED);
        let plan_sets: Vec<Vec<_>> = queries
            .iter()
            .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
            .collect();
        print!("{:<16}", cfg.name());
        for k in ks {
            let mut samples = Vec::new();
            for plans in &plan_sets {
                let t = Instant::now();
                let res = w::run(
                    &xk,
                    &ExecRequest {
                        threads: 4,
                        ..ExecRequest::topk(plans, w::cached_join(), k)
                    },
                );
                samples.push(t.elapsed());
                std::hint::black_box(res.rows.len());
            }
            print!("{:>10.1}", avg_ms(&samples));
        }
        println!();
    }
}

/// Fig. 15(b): all-results time vs maximum CTSSN size. Each
/// decomposition is evaluated with its natural full-results strategy:
/// nested-loop probing for the clustered/indexed configurations, full
/// scans + hash joins for the bare one (and, for reference, the hash
/// strategy is identical across the three minimal variants).
fn fig15b() {
    println!("\n== Figure 15(b): all-results time (ms) vs max CTSSN size ==");
    let data = w::bench_dblp_config();
    let sizes = [2usize, 3, 4, 5, 6];
    print!("{:<22}", "decomposition");
    for m in sizes {
        print!("{:>10}", format!("M={m}"));
    }
    println!();
    println!("(middleware scenario: 100us statement round trip)");
    for cfg in Config::FIG15 {
        let xk = w::dblp_instance(cfg, &data);
        xk.catalog().set_roundtrip(Duration::from_micros(100));
        let queries = w::pick_author_queries(&xk, QUERIES, SEED);
        let plan_sets: Vec<Vec<_>> = queries
            .iter()
            .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
            .collect();
        let hash = cfg == Config::MinNClustNIndx;
        print!(
            "{:<22}",
            format!("{}{}", cfg.name(), if hash { " (hash)" } else { "" })
        );
        for m in sizes {
            let mut samples = Vec::new();
            for plans in &plan_sets {
                let capped = w::cap_ctssn_size(plans, m);
                let t = Instant::now();
                let res = if hash {
                    w::run(&xk, &ExecRequest::all(&capped, Join::Hash))
                } else {
                    w::run(&xk, &ExecRequest::all(&capped, w::cached_join()))
                };
                samples.push(t.elapsed());
                std::hint::black_box(res.rows.len());
            }
            print!("{:>10.1}", avg_ms(&samples));
        }
        println!();
    }
}

/// Fig. 16(a): speedup of the cached execution over the naive one, vs
/// maximum CTSSN size (MinClust decomposition, as in §7).
fn fig16a() {
    println!("\n== Figure 16(a): caching speedup vs max CTSSN size ==");
    println!("(middleware scenario: 20us statement round trip)");
    let data = w::bench_dblp_config();
    let xk = w::dblp_instance(Config::MinClust, &data);
    xk.catalog().set_roundtrip(Duration::from_micros(20));
    let queries = w::pick_author_queries(&xk, 3, SEED);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    println!(
        "{:>4}{:>14}{:>14}{:>10}{:>14}{:>14}",
        "M", "naive-ms", "cached-ms", "speedup", "naive-probes", "cached-probes"
    );
    for m in [2usize, 3, 4, 5, 6] {
        let (mut tn, mut tc) = (Vec::new(), Vec::new());
        let (mut pn, mut pc) = (0u64, 0u64);
        for plans in &plan_sets {
            let capped = w::cap_ctssn_size(plans, m);
            let t = Instant::now();
            let rn = w::run(
                &xk,
                &ExecRequest::all(&capped, Join::NestedLoop(ExecMode::Naive)),
            );
            tn.push(t.elapsed());
            pn += rn.stats.probes;
            let t = Instant::now();
            let rc = w::run(&xk, &ExecRequest::all(&capped, w::cached_join()));
            tc.push(t.elapsed());
            pc += rc.stats.probes;
            assert_eq!(rn.mttons(), rc.mttons());
        }
        let (n, c) = (avg_ms(&tn), avg_ms(&tc));
        println!(
            "{:>4}{:>14.1}{:>14.1}{:>10.2}{:>14}{:>14}",
            m,
            n,
            c,
            n / c,
            pn / 3,
            pc / 3
        );
    }
}

/// Fig. 16(b): average time to expand a Paper node of the
/// Author–Paper^(s-1)–Author presentation graph, for the inlined
/// (XKeyword), minimal and combination decompositions.
fn fig16b() {
    println!("\n== Figure 16(b): expansion of a Paper node (ms) vs CTSSN size ==");
    println!("(middleware scenario: 100us statement round trip)");
    let data = w::bench_dblp_config();
    let sizes = [2usize, 3, 4, 5, 6];
    print!("{:<14}", "decomposition");
    for s in sizes {
        print!("{:>10}", format!("size={s}"));
    }
    println!();
    for (label, cfg) in [
        ("inlined", Config::XKeyword),
        ("minimal", Config::MinClust),
        ("combination", Config::Combined),
    ] {
        let xk = w::dblp_instance(cfg, &data);
        xk.catalog().set_roundtrip(Duration::from_micros(100));
        let queries = w::pick_author_queries(&xk, QUERIES, SEED);
        print!("{:<14}", label);
        for s in sizes {
            let mut samples = Vec::new();
            for (a, b) in &queries {
                if let Some(d) = expand_once(&xk, a, b, s) {
                    samples.push(d);
                }
            }
            if samples.is_empty() {
                print!("{:>10}", "-");
            } else {
                print!("{:>10.2}", avg_ms(&samples));
            }
        }
        println!();
    }
}

/// Builds the Author ← Paper (→ Paper)^(s-1) → Author CTSSN, finds its
/// first result as PG0, then times the on-demand expansion of the first
/// Paper role.
fn expand_once(xk: &XKeyword, kw_a: &str, kw_b: &str, size: usize) -> Option<Duration> {
    let tss = &xk.tss;
    let paper = tss.node_ids().find(|&i| tss.node(i).name == "Paper")?;
    let author = tss.node_ids().find(|&i| tss.node(i).name == "Author")?;
    let pa = tss.find_edge(paper, author)?;
    let pp = tss.find_edge(paper, paper)?;
    let aname = tss.schema().node_by_tag("aname")?;

    // Roles: A0, P1..P_{s-1}, A_last; edges: P1→A0, P_i→P_{i+1} chain,
    // P_{s-1}→A_last.
    let n_papers = size - 1;
    let mut roles = vec![author];
    roles.extend(std::iter::repeat_n(paper, n_papers));
    roles.push(author);
    let mut edges = vec![TreeEdge {
        a: 1,
        b: 0,
        edge: pa,
    }];
    for i in 1..n_papers {
        edges.push(TreeEdge {
            a: i as u8,
            b: (i + 1) as u8,
            edge: pp,
        });
    }
    edges.push(TreeEdge {
        a: n_papers as u8,
        b: (n_papers + 1) as u8,
        edge: pa,
    });
    let tree = TssTree { roles, edges };
    let mut annotations = vec![Vec::new(); n_papers + 2];
    annotations[0] = vec![KwRequirement {
        set: 0b01,
        schema_node: aname,
    }];
    annotations[n_papers + 1] = vec![KwRequirement {
        set: 0b10,
        schema_node: aname,
    }];
    let ctssn = Ctssn {
        tree,
        annotations,
        cn_size: size + 2,
    };
    let keywords = [kw_a, kw_b];
    let plan = xkw_core::optimizer::build_plan(&ctssn, &xk.catalog(), &xk.master(), &keywords)?;

    // PG0: first result.
    let mut cache = PartialCache::new(8192);
    let mut stats = exec::ExecStats::default();
    let mut first = None;
    let _ = exec::eval_plan(
        &xk.db,
        &xk.catalog(),
        0,
        &plan,
        w::cached(),
        &mut cache,
        &mut stats,
        &mut |r| {
            first = Some(r.assignment);
            std::ops::ControlFlow::Break(())
        },
    );
    let mut pg = xkw_core::presentation::PresentationGraph::initial(0, first?);

    // Expand the first Paper role (role 1).
    let anchored = build_plan_anchored(&ctssn, &xk.catalog(), &xk.master(), &keywords, 1)?;
    let universe = xk.targets().tos_of(paper).to_vec();
    let mut cache = PartialCache::new(8192);
    let t = Instant::now();
    let (_, _) = expand_on_demand(
        &xk.db,
        &xk.catalog(),
        &anchored,
        &mut pg,
        &universe,
        w::cached(),
        &mut cache,
    );
    Some(t.elapsed())
}

/// TPC-H section: the paper's first schema (Figures 1/5/6) at generator
/// scale — top-20 latency and plan-level join counts per decomposition
/// for "TV, VCR"-style product queries. Run with `experiments tpch`.
fn tpch_section() {
    println!("\n== TPC-H schema: top-20 (ms) and joins per decomposition ==");
    let data = w::bench_tpch_config();
    println!(
        "{:<16}{:>8}{:>10}{:>10}{:>12}",
        "decomposition", "plans", "joins", "top20-ms", "probes"
    );
    for cfg in [Config::XKeyword, Config::MinClust, Config::MinNClustNIndx] {
        let xk = w::tpch_instance(cfg, &data);
        xk.catalog().set_roundtrip(Duration::from_micros(100));
        let queries = w::pick_product_queries(&xk, 3);
        let mut total_joins = 0usize;
        let mut nplans = 0usize;
        let mut samples = Vec::new();
        let mut probes = 0u64;
        for (a, b) in &queries {
            let plans = w::plans_for(&xk, &[a, b], w::Z);
            total_joins += plans.iter().map(|p| p.joins()).sum::<usize>();
            nplans += plans.len();
            let t = Instant::now();
            let res = w::run(
                &xk,
                &ExecRequest {
                    threads: 4,
                    ..ExecRequest::topk(&plans, w::cached_join(), 20)
                },
            );
            samples.push(t.elapsed());
            probes += res.stats.probes;
        }
        println!(
            "{:<16}{:>8}{:>10}{:>10.1}{:>12}",
            cfg.name(),
            nplans,
            total_joins,
            avg_ms(&samples),
            probes
        );
    }
}
