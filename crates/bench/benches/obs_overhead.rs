//! Disabled-mode observability overhead on the Fig. 15(a) workload —
//! the CI gate behind the "near-zero cost when off" contract.
//!
//! When `xkw_obs` is disabled (the default), every instrumentation site
//! costs one relaxed atomic load and a branch; no span fields are
//! evaluated, nothing allocates. This bench turns that claim into a
//! measured bound:
//!
//! 1. run the Fig. 15(a) top-K batch with observability off and take the
//!    median batch latency `A`;
//! 2. run one batch with observability on and count the spans it records
//!    — that count `S` is exactly how many disabled flag checks the same
//!    batch performs when off (same call sites, same execution);
//! 3. microbenchmark the disabled check itself (`span!` with the flag
//!    off) to get a per-site cost `c`;
//! 4. assert `S * c < 2% * A` — the instrumentation's disabled-mode
//!    overhead on this workload is bounded under two percent.
//!
//! The enabled-mode median is printed alongside for context. One
//! `{"workload":..}` JSON line per run for easy harvesting.
//!
//! Usage: `cargo bench -p xkw-bench --bench obs_overhead [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkw_bench::workload::{self as w, Config};
use xkw_core::exec::ExecRequest;

/// Overhead budget: disabled-mode instrumentation must stay under this
/// fraction of the batch latency.
const BUDGET_PCT: f64 = 2.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::XKeyword, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let batch = || {
        for plans in &plan_sets {
            let res = w::run(&xk, &ExecRequest::topk(plans, w::cached_join(), 20));
            std::hint::black_box(res.rows.len());
        }
    };

    let iters = if quick { 12 } else { 40 };
    assert!(!xkw_obs::enabled(), "observability must start disabled");

    // Median batch latency with observability off (after warmup).
    batch();
    batch();
    let disabled_ns = median_ns(iters, &batch);

    // One traced batch: its span count is the number of flag checks the
    // disabled run performs at the same sites.
    xkw_obs::set_enabled(true);
    xkw_obs::trace::clear_spans();
    batch();
    let span_sites = xkw_obs::trace::take_spans().len() as u64;
    let enabled_ns = median_ns(iters, &|| {
        batch();
        // Keep the collector from growing without bound across iterations.
        xkw_obs::trace::clear_spans();
    });
    xkw_obs::set_enabled(false);

    // Per-site cost of a disabled instrumentation check.
    let probes: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..probes {
        let _g = xkw_obs::span!("obs_overhead.noop", i = i);
        std::hint::black_box(&_g);
    }
    let check_ns = t.elapsed().as_nanos() as f64 / probes as f64;

    let overhead_ns = span_sites as f64 * check_ns;
    let overhead_pct = 100.0 * overhead_ns / disabled_ns as f64;
    println!(
        "{{\"workload\":\"fig15a_topk\",\"batch_ns_disabled\":{disabled_ns},\
         \"batch_ns_enabled\":{enabled_ns},\"span_sites\":{span_sites},\
         \"disabled_check_ns\":{check_ns:.3},\"overhead_pct\":{overhead_pct:.4}}}"
    );
    assert!(
        overhead_pct < BUDGET_PCT,
        "disabled-mode observability overhead {overhead_pct:.4}% exceeds the {BUDGET_PCT}% budget \
         ({span_sites} sites x {check_ns:.3} ns on a {disabled_ns} ns batch)"
    );
    println!(
        "ok: disabled-mode overhead {overhead_pct:.4}% < {BUDGET_PCT}% \
         (enabled-mode batch is {:.1}% of disabled)",
        100.0 * enabled_ns as f64 / disabled_ns as f64
    );
}

/// Median wall time of `f` over `iters` runs, in nanoseconds.
fn median_ns(iters: usize, f: &dyn Fn()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}
