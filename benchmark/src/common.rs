//! What the four workloads share: run parameters, the repeated set-up,
//! the warmed query pool with its oracle, and the per-layer metrics read
//! off engine outcomes, spans and micro-probes.

use crate::gen::{self, Query, CACHED, K, Z};
use crate::report::Outcome;
use crate::staged::Staged;
use crate::stats::{self, pct_or_zero, ratio};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xkw_core::engine::QueryMetrics;
use xkw_core::optimizer::CtssnPlan;
use xkw_core::prelude::*;
use xkw_store::PageId;

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Report the per-layer metrics of the traced pass in place of the
    /// end-to-end metrics of the untraced one.
    pub trace: bool,
}

impl Params {
    /// Set-ups per run; `setup_s` is their median. The traced run reports
    /// the phases of a single set-up.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.seconds < 5.0 {
            1
        } else {
            3
        }
    }

    /// Operations of the traced pass: a fifth of what the workload
    /// nominally runs at `per_second`, a fixed count so that counters of a
    /// single-client traced run repeat exactly.
    pub fn trace_ops(&self, per_second: f64) -> usize {
        ((self.seconds * per_second * 0.2) as usize).max(20)
    }
}

/// Scratch space of a run (WAL directories, traces, the summary), inside
/// the checkout.
pub fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

/// Seconds spent in the phases of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate_s: f64,
    pub load_s: f64,
    /// Everything after load: server start, pool verification, oracle
    /// answers and the plan-cache warm-up pass.
    pub warm_s: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.generate_s + self.load_s + self.warm_s
    }
}

/// Sets up `reps` times, dropping each state before building the next
/// (two instances never coexist, so peak memory is one instance's), and
/// reports the per-phase medians with the last state.
pub fn repeat_setup<T>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut() -> (T, Phases),
) -> T {
    let mut state = None;
    let mut runs: Vec<Phases> = Vec::new();
    for _ in 0..reps {
        drop(state.take());
        let (s, phases) = setup();
        state = Some(s);
        runs.push(phases);
    }
    let med = |f: fn(&Phases) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    out.set_n("setup_s", med(Phases::total), reps);
    out.set_n("setup.generate_s", med(|p| p.generate_s), reps);
    out.set_n("setup.load_s", med(|p| p.load_s), reps);
    out.set_n("setup.warm_s", med(|p| p.warm_s), reps);
    state.expect("at least one set-up")
}

/// Generates `dblp_s2` and loads it; returns the instance with the
/// seconds each step took.
pub fn load_instance(pool_pages: usize, wal_dir: Option<PathBuf>) -> (XKeyword, f64, f64) {
    let t = Instant::now();
    let data = gen::dataset().generate();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let xk = XKeyword::load(data.graph, data.tss, gen::load_options(pool_pages, wal_dir))
        .expect("generated data conforms and the WAL opens");
    (xk, generate_s, t.elapsed().as_secs_f64())
}

/// One pool query with the answer it must get.
pub struct PoolEntry {
    pub query: Query,
    /// Digest of the rows `query_topk_opts(prune = false)` returned.
    pub digest: u64,
    pub rows: usize,
}

impl PoolEntry {
    pub fn kw(&self) -> Vec<&str> {
        self.query.kw()
    }
}

/// Builds the seeded `mix48` pool: every keyword present, every query
/// non-empty, its unpruned answer recorded as the oracle. That one pass
/// over the pool is also the warm-up: it leaves every shape's skeletons
/// in the plan cache.
pub fn mix48(xk: &XKeyword, seed: u64) -> Vec<PoolEntry> {
    let mut oracle: Vec<(u64, usize)> = Vec::new();
    let queries = gen::pool(seed, &gen::LAYOUT, xk, |q| {
        match xk
            .engine()
            .query_topk_opts(&q.kw(), Z, K, CACHED, 1, None, false)
        {
            Ok(unpruned) if !unpruned.results.rows.is_empty() => {
                oracle.push((
                    stats::digest_result_rows(&unpruned.results.rows),
                    unpruned.results.rows.len(),
                ));
                true
            }
            _ => false,
        }
    });
    queries
        .into_iter()
        .zip(oracle)
        .map(|(query, (digest, rows))| PoolEntry {
            query,
            digest,
            rows,
        })
        .collect()
}

/// Latency samples and delivery counts of one closed-loop pass.
#[derive(Default)]
pub struct Pass {
    pub ms: Vec<f64>,
    pub elapsed_s: f64,
    pub delivered: u64,
    pub metrics: Vec<QueryMetrics>,
}

impl Pass {
    /// The read metrics every workload reports from its measured pass;
    /// latency percentiles are medians over `chunk`-operation segments
    /// (see [`stats::segmented_percentile`]).
    pub fn report_end_to_end(&self, out: &mut Outcome, chunk: usize) {
        let n = self.ms.len();
        out.set_n("qps", ratio(n as f64, self.elapsed_s), n);
        out.set_n(
            "ms_p50",
            stats::segmented_percentile(&self.ms, chunk, 0.50),
            n,
        );
        out.set_n(
            "ms_p95",
            stats::segmented_percentile(&self.ms, chunk, 0.95),
            n,
        );
        out.set_n(
            "mttons_per_s",
            ratio(self.delivered as f64, self.elapsed_s),
            n,
        );
    }

    /// Report-only tails.
    pub fn report_tails(&self, out: &mut Outcome) {
        out.set_n("ms_p99", pct_or_zero(&self.ms, 0.99), self.ms.len());
        out.set_n("ms_max", stats::max(&self.ms), self.ms.len());
    }
}

/// Cells of end-to-end metrics whose operation a workload does not run.
/// The driver wants every end-to-end metric from every workload and none
/// may read 0, so such a cell repeats the workload's own nearest
/// measurement and moves only when that does: a closed loop's due instant
/// is its send instant, so open-loop latency is the closed-loop latency;
/// with no writes, write latency reads as the read latency; opening an
/// instance without a WAL takes `XKeyword::load`; and with no log the only
/// bytes made durable are the document's own (amplification 1).
pub fn fill_foreign_cells(out: &mut Outcome, open_loop: bool, writes: bool) {
    if !open_loop {
        out.set("open_ms_p50", out.get("ms_p50"));
        out.set("open_ms_p95", out.get("ms_p95"));
    }
    if !writes {
        out.set("insert_ms_p50", out.get("ms_p50"));
        out.set("delete_ms_p50", out.get("ms_p50"));
        out.set("recover_s", out.get("setup.load_s"));
        out.set("wal_amp", 1.0);
    }
}

/// Engine-side layer metrics from the `QueryOutcome.metrics` of a pass.
pub fn report_engine(out: &mut Outcome, metrics: &[QueryMetrics], evictions: u64) {
    let n = metrics.len();
    let q = n as f64;
    let sum = |f: fn(&QueryMetrics) -> f64| metrics.iter().map(f).sum::<f64>();
    let discover = sum(|m| m.discover.as_secs_f64());
    let plan = sum(|m| m.plan.as_secs_f64());
    let exec = sum(|m| m.exec.as_secs_f64());
    let present = sum(|m| m.present.as_secs_f64());
    let total = discover + plan + exec + present;
    out.set_n(
        "engine.plan_cache_hit_rate",
        ratio(sum(|m| f64::from(u8::from(m.plan_cache_hit))), q),
        n,
    );
    out.set_n("engine.discover_share", ratio(discover, total), n);
    out.set_n("engine.plan_share", ratio(plan, total), n);
    out.set_n("engine.exec_share", ratio(exec, total), n);
    out.set_n("engine.present_share", ratio(present, total), n);
    let pc_hits = sum(|m| m.partial_cache_hits as f64);
    let pc_misses = sum(|m| m.partial_cache_misses as f64);
    out.set_n(
        "exec.partial_cache_hit_rate",
        ratio(pc_hits, pc_hits + pc_misses),
        n,
    );
    let plans = sum(|m| m.plans as f64);
    out.set_n(
        "ranking.plans_pruned_share",
        ratio(sum(|m| m.plans_pruned as f64), plans),
        n,
    );
    out.set_n(
        "ranking.plans_early_stopped_per_query",
        ratio(sum(|m| m.plans_early_stopped as f64), q),
        n,
    );
    let hits = sum(|m| m.io_hits as f64);
    let misses = sum(|m| m.io_misses as f64);
    out.set_n("buffer.hit_rate", ratio(hits, hits + misses), n);
    out.set_n("buffer.fetches_per_query", ratio(hits + misses, q), n);
    out.set_n("buffer.misses_per_query", ratio(misses, q), n);
    out.set_n("buffer.evictions_per_query", ratio(evictions as f64, q), n);
}

/// Planning and execution layer metrics from the staged pipeline's spans
/// and per-call samples.
pub fn report_staged(out: &mut Outcome, tr: &Tracer, staged: &Staged) {
    let span_p50 = |out: &mut Outcome, metric: &str, span: &str, per_ns: f64| {
        let d = tr.durations(span, per_ns);
        out.set_n(metric, pct_or_zero(&d, 0.50), d.len());
    };
    span_p50(
        out,
        "master_index.discover_us_p50",
        "bench.master_index.discover",
        1e-3,
    );
    span_p50(
        out,
        "master_index.seek_build_us_p50",
        "bench.master_index.seek_build",
        1e-3,
    );
    span_p50(
        out,
        "optimizer.instantiate_ms_p50",
        "bench.optimizer.instantiate",
        1e-6,
    );
    span_p50(out, "exec.topk_ms_p50", "bench.exec.topk", 1e-6);
    span_p50(out, "exec.enum_ms_p50", "bench.exec.enum", 1e-6);
    let cold = &staged.cold;
    out.set_n(
        "cn.generate_ms_p50",
        pct_or_zero(&cold.cn_generate_ms, 0.50),
        cold.cn_generate_ms.len(),
    );
    out.set_n(
        "cn.networks_per_shape",
        ratio(cold.networks.iter().sum(), cold.networks.len() as f64),
        cold.networks.len(),
    );
    out.set_n(
        "ctssn.reduce_us_p50",
        pct_or_zero(&cold.ctssn_reduce_us, 0.50),
        cold.ctssn_reduce_us.len(),
    );
    out.set_n(
        "optimizer.skeleton_ms_p50",
        pct_or_zero(&cold.skeleton_ms, 0.50),
        cold.skeleton_ms.len(),
    );
    out.set_n(
        "optimizer.plans_per_query",
        ratio(staged.plans.iter().sum(), staged.plans.len() as f64),
        staged.plans.len(),
    );
    let present_us: f64 = tr.durations("bench.presentation.dedup", 1e-3).iter().sum();
    out.set(
        "present.us_per_kmtton",
        ratio(present_us * 1e3, staged.mttons as f64),
    );
    out.set(
        "exec.fetches_per_mtton",
        ratio(staged.rows_examined as f64, staged.mttons as f64),
    );
}

/// Index footprint gauges.
pub fn report_footprint(out: &mut Outcome, xk: &XKeyword) {
    out.set(
        "master_index.postings_bytes",
        xk.master().postings_bytes() as f64,
    );
    let graph = xk.graph();
    out.set(
        "graph.bytes_per_node",
        ratio(graph.graph_bytes() as f64, graph.node_count() as f64),
    );
}

/// `buffer.fetch_ns`: a million `pool.fetch` of one resident page.
pub fn probe_buffer_fetch(out: &mut Outcome, xk: &XKeyword) {
    const FETCHES: u32 = 1_000_000;
    let (pool, disk) = (xk.db.pool(), xk.db.disk());
    pool.fetch(disk, PageId(0));
    let t = Instant::now();
    for _ in 0..FETCHES {
        std::hint::black_box(pool.fetch(disk, std::hint::black_box(PageId(0))));
    }
    out.set_n(
        "buffer.fetch_ns",
        t.elapsed().as_nanos() as f64 / f64::from(FETCHES),
        FETCHES as usize,
    );
}

/// `store.probe_us_p50`: replays 10 000 `RelationCatalog::probe` calls
/// whose keys come from result rows — the first column of each tile of the
/// producing plan, bound to the row's target object for that role.
pub fn probe_store(
    out: &mut Outcome,
    xk: &XKeyword,
    answered: &[(Vec<CtssnPlan>, Vec<xkw_core::exec::ResultRow>)],
) {
    const PROBES: usize = 10_000;
    let mut keys: Vec<(usize, u32)> = Vec::new();
    for (plans, rows) in answered {
        for row in rows {
            for tile in &plans[row.plan].tiles {
                keys.push((tile.rel, row.assignment[tile.cols_to_roles[0] as usize]));
            }
        }
    }
    if keys.is_empty() {
        return;
    }
    let catalog = xk.catalog();
    let mut us = Vec::with_capacity(PROBES);
    for &(rel, key) in keys.iter().cycle().take(PROBES) {
        let t = Instant::now();
        std::hint::black_box(catalog.probe(&xk.db, rel, &[0], &[key]));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set_n("store.probe_us_p50", pct_or_zero(&us, 0.50), us.len());
}

/// Checks that the spans' self times account for the traced operation
/// time (`traced_op_ms`, measured around each operation, outside its root
/// span), writes the trace file and reports the tracing overhead: the
/// traced pass's median against the untraced one's.
pub fn finish_trace(
    out: &mut Outcome,
    p: &Params,
    tr: &Tracer,
    traced_op_ms: &[f64],
    traced_p50: f64,
    untraced_p50: f64,
) {
    let self_times = tr.self_times_ns();
    let self_ms: f64 = self_times.values().sum::<u64>() as f64 / 1e6;
    let op_ms: f64 = traced_op_ms.iter().sum();
    out.check((self_ms - op_ms).abs() <= 0.05 * op_ms, || {
        format!("span self times sum to {self_ms:.1} ms, traced operations took {op_ms:.1} ms")
    });
    out.set_n(
        "trace.overhead_pct",
        ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
        traced_op_ms.len(),
    );
    let path = out_dir().join(format!("trace-{}.json", p.workload));
    if let Err(e) = tr.write_chrome(&path) {
        out.problems
            .push(format!("writing {}: {e}", path.display()));
    }
    println!(
        "{:<13} trace: {} spans in {}",
        p.workload,
        tr.spans().len(),
        path.display()
    );
    for (name, ns) in self_times {
        println!(
            "{:<13} self time {name:<34} {:>10.3} ms",
            p.workload,
            ns as f64 / 1e6
        );
    }
}
