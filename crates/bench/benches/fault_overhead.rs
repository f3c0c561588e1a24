//! Disarmed-mode fault-injection overhead on the Fig. 15(a) workload —
//! the CI gate behind the "free when off" contract of the fault layer.
//!
//! With no [`FaultSpec`] installed the read path pays one relaxed
//! atomic load per pool miss (the quarantine/armed probe); checksum
//! verification, fault-rule evaluation and retry machinery are all
//! skipped. This bench turns that claim into a measured bound:
//!
//! 1. run the Fig. 15(a) top-K batch with the fault layer disarmed and
//!    take the median batch latency `A` — on a buffer pool small enough
//!    that the batch actually misses (a fully warm pool never touches
//!    the fault layer at all, which would make the gate vacuous);
//! 2. count the buffer-pool misses `M` one batch performs — each miss
//!    is exactly one disarmed fault probe on the same execution;
//! 3. microbenchmark the disarmed probe itself (quarantine check +
//!    armed load) to get a per-site cost `c`;
//! 4. assert `M * c < 2% * A`.
//!
//! The armed-but-inert median (a transient rule with probability 0) is
//! printed alongside for context. One `{"workload":..}` JSON line per
//! run for easy harvesting.
//!
//! Usage: `cargo bench -p xkw-bench --bench fault_overhead [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkw_bench::workload::{self as w, Config};
use xkw_core::prelude::{ExecRequest, XKeyword};
use xkw_store::{FaultKind, FaultSpec, FaultTarget};

/// Overhead budget: disarmed-mode fault probes must stay under this
/// fraction of the batch latency.
const BUDGET_PCT: f64 = 2.0;

/// Pool size in pages — small enough that the Fig. 15(a) batch misses
/// (and so exercises the fault probe) on every iteration.
const POOL_PAGES: usize = 8;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let d = data.generate();
    let mut opts = Config::XKeyword.load_options();
    opts.pool_pages = POOL_PAGES;
    let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
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
    assert!(!xk.db.faults().armed(), "fault layer must start disarmed");

    // Median batch latency with the fault layer disarmed (after warmup).
    batch();
    batch();
    let before = xk.db.io();
    batch();
    let probe_sites = xk.db.io().since(before).misses;
    assert!(
        probe_sites > 0,
        "the batch must miss in a {POOL_PAGES}-page pool, or the gate is vacuous"
    );
    let disarmed_ns = median_ns(iters, &batch);

    // Armed but inert: every read evaluates the rule table, none fire.
    xk.db
        .install_faults(FaultSpec::new(7).rule(FaultKind::TransientRead, FaultTarget::All, 0.0));
    let armed_ns = median_ns(iters, &batch);
    xk.db.faults().clear();
    assert!(!xk.db.faults().armed(), "clear() must disarm the layer");

    // Per-site cost of a disarmed fault probe (what every pool miss
    // pays): the quarantine check plus the armed load.
    let faults = xk.db.faults();
    let probes: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..probes {
        std::hint::black_box(faults.is_quarantined(i as u32) | faults.armed());
    }
    let check_ns = t.elapsed().as_nanos() as f64 / probes as f64;

    let overhead_ns = probe_sites as f64 * check_ns;
    let overhead_pct = 100.0 * overhead_ns / disarmed_ns as f64;
    println!(
        "{{\"workload\":\"fig15a_topk\",\"batch_ns_disarmed\":{disarmed_ns},\
         \"batch_ns_armed_inert\":{armed_ns},\"probe_sites\":{probe_sites},\
         \"disarmed_probe_ns\":{check_ns:.3},\"overhead_pct\":{overhead_pct:.4}}}"
    );
    assert!(
        overhead_pct < BUDGET_PCT,
        "disarmed-mode fault overhead {overhead_pct:.4}% exceeds the {BUDGET_PCT}% budget \
         ({probe_sites} misses x {check_ns:.3} ns on a {disarmed_ns} ns batch)"
    );
    println!(
        "ok: disarmed-mode fault overhead {overhead_pct:.4}% < {BUDGET_PCT}% \
         (armed-but-inert batch is {:.1}% of disarmed)",
        100.0 * armed_ns as f64 / disarmed_ns as f64
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
