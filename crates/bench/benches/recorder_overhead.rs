//! Always-on flight-recorder overhead on the Fig. 15(a) workload — the
//! CI gate behind the "recording every query is affordable" contract.
//!
//! Unlike span tracing (off by default, gated by `obs_overhead`), the
//! flight recorder runs on every query out of the box: one record
//! allocation, a lock-striped ring push, and the sliding-window metric
//! updates. This bench bounds that cost:
//!
//! 1. run the Fig. 15(a) top-K batch through the *engine* (the recorder
//!    hooks live in `QueryEngine::run`, not the raw executor) with the
//!    recorder disabled and take the median batch latency `A`;
//! 2. run the same batch with the recorder enabled (default config:
//!    1-in-64 head sampling, 50 ms slow threshold) for median `B`;
//! 3. assert the recorder actually recorded (non-vacuousness floor),
//!    the ring stayed within capacity, and `(B - A) / A < 5%`.
//!
//! Medians land in `BENCH_obs.json`. One `{"workload":..}` JSON line
//! per run for easy harvesting.
//!
//! Usage: `cargo bench -p xkw-bench --bench recorder_overhead [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkw_bench::workload::{self as w, Config};
use xkw_core::prelude::QuerySpec;

/// Overhead budget: always-on recording must stay under this fraction
/// of the batch latency.
const BUDGET_PCT: f64 = 5.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::XKeyword, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let engine = xk.engine();
    let batch = || {
        for (a, b) in &queries {
            let out = engine
                .query(&QuerySpec::topk(&[a, b], w::Z, 20, w::cached()))
                .expect("bench query must succeed");
            std::hint::black_box(out.results.rows.len());
        }
    };

    let iters = if quick { 12 } else { 40 };
    assert!(!xkw_obs::enabled(), "span tracing must stay disabled");
    let recorder = engine.recorder();
    assert!(recorder.enabled(), "recording is on by default");

    // Median batch latency with the recorder off (after warmup).
    recorder.set_enabled(false);
    batch();
    batch();
    let disabled_ns = median_ns(iters, &batch);
    assert_eq!(recorder.appended(), 0, "disabled recorder must not record");

    // Median with the recorder on, default sampling and threshold.
    recorder.set_enabled(true);
    let enabled_ns = median_ns(iters, &batch);
    let appended = recorder.appended();

    // Non-vacuousness floor: every query of every timed batch recorded,
    // and the ring respected its bound.
    let floor = (iters * queries.len()) as u64;
    assert!(
        appended >= floor,
        "recorder must have captured the timed batches ({appended} < {floor})"
    );
    assert!(
        recorder.len() <= recorder.capacity(),
        "ring must stay within capacity"
    );

    let overhead_pct = 100.0 * (enabled_ns as f64 - disabled_ns as f64) / disabled_ns as f64;
    println!(
        "{{\"workload\":\"fig15a_topk_engine\",\"batch_ns_recorder_off\":{disabled_ns},\
         \"batch_ns_recorder_on\":{enabled_ns},\"records_appended\":{appended},\
         \"overhead_pct\":{overhead_pct:.4}}}"
    );
    assert!(
        overhead_pct < BUDGET_PCT,
        "always-on recorder overhead {overhead_pct:.4}% exceeds the {BUDGET_PCT}% budget \
         ({enabled_ns} ns vs {disabled_ns} ns per batch)"
    );
    println!("ok: always-on recorder overhead {overhead_pct:.4}% < {BUDGET_PCT}%");
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
