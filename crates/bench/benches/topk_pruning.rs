//! Top-k early-termination gate — the CI contract behind the pruned
//! `topk` path (admissible per-plan bounds + shared threshold + LIMIT
//! pushdown).
//!
//! Fig. 15(a)-shape runs (XKeyword decomposition, disk-resident
//! middleware scenario: 128-page pool cleared before every batch, 2ms
//! miss penalty, 100µs statement round trip, 8 worker threads) over
//! author-pair queries at k ∈ {1, 10, 100}, pruning on vs the
//! `--no-prune` baseline. The pool is cold per batch because that is the
//! regime the paper measures — and the regime where early termination
//! matters: on a warm pool the cheapest plan answers k = 1 before the
//! other workers even claim, so both paths converge trivially. Both
//! paths run under the same pushed-down per-plan `k`-row limit; the
//! baseline differs only in the threshold cutoff, so the gate isolates
//! exactly the pruning layer. Three claims, all asserted hard:
//!
//! 1. **Work at small k**: with pruning on, at least
//!    [`MIN_K1_REDUCTION_PCT`]% fewer plans are *fully evaluated*
//!    (claimed and not aborted mid-plan) at k = 1 than the baseline
//!    fully evaluates. This is the asymptotic win: score-ordered claims
//!    plus the shared threshold let one emitted result retire every
//!    higher-bound plan.
//! 2. **No regression at large k**: at k = 100 (≥ every result the
//!    queries produce, so the threshold rarely latches) the pruned
//!    path's median batch latency must not exceed the baseline's beyond
//!    [`MAX_K100_REGRESSION_PCT`]% — the zero-regression contract with a
//!    scheduling-noise allowance, same convention as the compression
//!    bench's latency gate.
//! 3. **Non-vacuousness**: the query set must instantiate at least
//!    [`MIN_PLANS`] plans, or the reduction is measured on noise.
//!
//! Byte-identity of the returned rows is also re-checked here (the
//! proptest in `tests/concurrency.rs` is the primary pin). One
//! `{"workload":..}` JSON line per section — the numbers recorded in
//! `BENCH_topk.json`.
//!
//! Usage: `cargo bench -p xkw-bench --bench topk_pruning [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::{Duration, Instant};
use xkw_bench::workload::{self as w, Config};
use xkw_core::prelude::*;

/// Minimum percentage of fully-evaluated plans that pruning must shave
/// off at k = 1.
const MIN_K1_REDUCTION_PCT: f64 = 30.0;

/// Pruned-path median latency at k = 100 may exceed the no-prune median
/// by at most this percentage (the ≤ 0% contract plus measurement
/// noise; the threshold tracker is off the probe hot path).
const MAX_K100_REGRESSION_PCT: f64 = 5.0;

/// Non-vacuousness floor: the query set must instantiate at least this
/// many plans in total.
const MIN_PLANS: usize = 24;

/// Worker threads — enough that the baseline claims eagerly at small k,
/// which is exactly the work pruning exists to retire.
const THREADS: usize = 8;

/// Summed prune accounting over one batch run.
#[derive(Default)]
struct Work {
    claimed: usize,
    pruned: usize,
    early_stopped: usize,
}

impl Work {
    /// Plans that ran to their per-plan limit: claimed minus mid-plan
    /// aborts (the no-prune path never aborts, so this is `claimed`).
    fn fully_evaluated(&self) -> usize {
        self.claimed - self.early_stopped
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 5 } else { 15 };

    // Fig. 15(a) disk-resident scenario.
    let data = w::bench_dblp_config();
    let mut opts = Config::XKeyword.load_options();
    opts.pool_pages = 128;
    let d = data.generate();
    let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
    xk.db.pool().set_miss_penalty(Duration::from_millis(2));
    xk.catalog().set_roundtrip(Duration::from_micros(100));
    let queries = w::pick_author_queries(&xk, 5, 7);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let total_plans: usize = plan_sets.iter().map(Vec::len).sum();
    println!(
        "{{\"workload\":\"topk_pruning_setup\",\"queries\":{},\"plans\":{total_plans},\
         \"threads\":{THREADS}}}",
        plan_sets.len()
    );
    assert!(
        total_plans >= MIN_PLANS,
        "the query set instantiates only {total_plans} plans (< {MIN_PLANS}) — \
         the reduction gate would be vacuous"
    );

    let batch = |k: usize, prune: bool| -> Work {
        let mut work = Work::default();
        for plans in &plan_sets {
            let res = w::run(
                &xk,
                &ExecRequest {
                    threads: THREADS,
                    prune,
                    ..ExecRequest::topk(plans, w::cached_join(), k)
                },
            );
            work.claimed += res.prune.plans_claimed;
            work.pruned += res.prune.plans_pruned;
            work.early_stopped += res.prune.plans_early_stopped;
            std::hint::black_box(res.rows.len());
        }
        work
    };

    let mut k1_reduction_pct = 0.0;
    let mut k100_delta_pct = 0.0;
    for k in [1usize, 10, 100] {
        // Byte-identity spot check on this workload (the proptest in
        // tests/concurrency.rs is the primary pin).
        for plans in &plan_sets {
            let a = w::run(
                &xk,
                &ExecRequest {
                    threads: THREADS,
                    ..ExecRequest::topk(plans, w::cached_join(), k)
                },
            );
            let b = w::run(
                &xk,
                &ExecRequest {
                    threads: THREADS,
                    prune: false,
                    ..ExecRequest::topk(plans, w::cached_join(), k)
                },
            );
            assert_eq!(a.rows, b.rows, "pruning changed the top-{k} rows");
        }

        // Work accounting: median fully-evaluated count over the runs
        // (claim/abort interleavings jitter under 8 threads).
        let mut lat = Vec::new();
        let mut evaluated = Vec::new();
        for &prune in &[false, true] {
            let mut fe: Vec<usize> = Vec::new();
            let mut ns: Vec<u64> = Vec::new();
            let mut pruned_total = 0usize;
            for _ in 0..iters {
                xk.db.pool().clear(); // disk-resident: every batch starts cold
                let t = Instant::now();
                let work = batch(k, prune);
                ns.push(t.elapsed().as_nanos() as u64);
                fe.push(work.fully_evaluated());
                pruned_total += work.pruned;
            }
            fe.sort_unstable();
            ns.sort_unstable();
            lat.push(ns[ns.len() / 2]);
            evaluated.push(fe[fe.len() / 2]);
            println!(
                "{{\"workload\":\"topk_pruning\",\"k\":{k},\"prune\":{prune},\
                 \"fully_evaluated_median\":{},\"pruned_per_iter\":{:.1},\
                 \"median_ns\":{}}}",
                fe[fe.len() / 2],
                pruned_total as f64 / iters as f64,
                ns[ns.len() / 2]
            );
        }
        let (base_fe, prune_fe) = (evaluated[0], evaluated[1]);
        let (base_ns, prune_ns) = (lat[0], lat[1]);
        let reduction_pct = 100.0 * (base_fe as f64 - prune_fe as f64) / base_fe.max(1) as f64;
        let delta_pct = 100.0 * (prune_ns as f64 - base_ns as f64) / base_ns as f64;
        println!(
            "{{\"workload\":\"topk_pruning_summary\",\"k\":{k},\
             \"fully_evaluated_reduction_pct\":{reduction_pct:.1},\
             \"latency_delta_pct\":{delta_pct:.2}}}"
        );
        if k == 1 {
            k1_reduction_pct = reduction_pct;
        }
        if k == 100 {
            k100_delta_pct = delta_pct;
        }
    }

    assert!(
        k1_reduction_pct >= MIN_K1_REDUCTION_PCT,
        "pruning only removed {k1_reduction_pct:.1}% of fully-evaluated plans at k=1; \
         the gate requires >= {MIN_K1_REDUCTION_PCT}%"
    );
    assert!(
        k100_delta_pct <= MAX_K100_REGRESSION_PCT,
        "pruning slowed the k=100 batch by {k100_delta_pct:.2}%; \
         the gate allows {MAX_K100_REGRESSION_PCT}%"
    );
    println!(
        "ok: {k1_reduction_pct:.1}% fewer plans fully evaluated at k=1 \
         (gate {MIN_K1_REDUCTION_PCT}%), k=100 latency delta {k100_delta_pct:+.2}% \
         (gate {MAX_K100_REGRESSION_PCT}%)"
    );
}
