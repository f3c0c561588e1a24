//! Postings-compression gate on DBLP generator data — the CI contract
//! behind the packed containing-list format.
//!
//! Two claims, both asserted hard:
//!
//! 1. **Size**: `PackedPostings` (delta + bitpacked blocks with skip
//!    entries) must be ≥ [`MIN_RATIO`]× smaller than the raw
//!    `Vec<Posting>` layout on the DBLP generator dataset. A
//!    non-vacuousness floor on the posting count keeps the gate honest —
//!    a near-empty index compresses trivially and proves nothing.
//! 2. **Speed**: the Fig. 15(a) top-K batch over the packed index must
//!    stay within [`MAX_SLOWDOWN_PCT`]% of the raw-index median (block
//!    decode happens once per driver-list materialization, off the
//!    probe hot path).
//!
//! Alongside the gates, the bench measures the bytes-per-node footprint
//! (postings + graph arena) at increasing `dblp --scale` factors — the
//! numbers recorded in `BENCH_compression.json`. One `{"workload":..}`
//! JSON line per section for easy harvesting.
//!
//! Usage: `cargo bench -p xkw-bench --bench compression [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkw_bench::workload::{self as w, Config};
use xkw_core::postings::PostingsFormatKind;
use xkw_core::prelude::*;
use xkw_core::target::TargetGraph;
use xkw_datagen::dblp::DblpConfig;

/// Packed postings must be at least this many times smaller than raw.
const MIN_RATIO: f64 = 3.0;

/// Fig. 15(a)-shape latency over the packed index may exceed the raw
/// median by at most this percentage.
const MAX_SLOWDOWN_PCT: f64 = 10.0;

/// Non-vacuousness floor: the gate dataset must index at least this many
/// postings, or the ratio is measured on noise.
const MIN_POSTINGS: usize = 50_000;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // --- Size gate on the dblp generator dataset ------------------------
    // Index-only build (no store, no relations), so the gate can afford a
    // dataset well past the non-vacuousness floor.
    let data = w::bench_dblp_config();
    let d = DblpConfig::at_scale(5).generate();
    let targets = TargetGraph::build(&d.graph, &d.tss).expect("DBLP data conforms");
    let raw_idx = MasterIndex::build_with(&d.graph, &targets, PostingsFormatKind::Raw);
    let packed_idx = MasterIndex::build_with(&d.graph, &targets, PostingsFormatKind::Packed);
    assert!(
        raw_idx.posting_count() >= MIN_POSTINGS,
        "gate dataset holds only {} postings (< {MIN_POSTINGS}) — the ratio would be vacuous",
        raw_idx.posting_count()
    );
    assert_eq!(raw_idx.posting_count(), packed_idx.posting_count());
    let (raw_bytes, packed_bytes) = (raw_idx.postings_bytes(), packed_idx.postings_bytes());
    let ratio = raw_bytes as f64 / packed_bytes as f64;
    println!(
        "{{\"workload\":\"dblp_postings_size\",\"postings\":{},\"raw_bytes\":{raw_bytes},\
         \"packed_bytes\":{packed_bytes},\"ratio\":{ratio:.2}}}",
        raw_idx.posting_count()
    );
    assert!(
        ratio >= MIN_RATIO,
        "packed postings only {ratio:.2}x smaller than raw \
         ({packed_bytes} vs {raw_bytes} bytes); the gate requires >= {MIN_RATIO}x"
    );

    // --- Latency gate: Fig. 15(a) top-K batch, raw vs packed ------------
    let iters = if quick { 12 } else { 40 };
    let mut lat = Vec::new();
    for format in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        let d = data.generate();
        let mut opts = Config::XKeyword.load_options();
        opts.postings_format = format;
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
        batch();
        batch();
        lat.push(median_ns(iters, &batch));
    }
    let (raw_ns, packed_ns) = (lat[0], lat[1]);
    let delta_pct = 100.0 * (packed_ns as f64 - raw_ns as f64) / raw_ns as f64;
    println!(
        "{{\"workload\":\"fig15a_topk_postings\",\"raw_ns\":{raw_ns},\
         \"packed_ns\":{packed_ns},\"delta_pct\":{delta_pct:.2}}}"
    );
    assert!(
        delta_pct <= MAX_SLOWDOWN_PCT,
        "packed postings slow the fig15a batch by {delta_pct:.2}% \
         ({packed_ns} vs {raw_ns} ns); the gate allows {MAX_SLOWDOWN_PCT}%"
    );

    // --- Bytes-per-node scale table --------------------------------------
    let scales: &[usize] = if quick { &[1, 5] } else { &[1, 5, 25] };
    for &scale in scales {
        let d = DblpConfig::at_scale(scale).generate();
        let targets = TargetGraph::build(&d.graph, &d.tss).expect("DBLP data conforms");
        let idx = MasterIndex::build_with(&d.graph, &targets, PostingsFormatKind::Packed);
        let raw = MasterIndex::build_with(&d.graph, &targets, PostingsFormatKind::Raw);
        let nodes = d.graph.node_count();
        let graph_bytes = d.graph.graph_bytes();
        println!(
            "{{\"workload\":\"dblp_scale\",\"scale\":{scale},\"nodes\":{nodes},\
             \"postings\":{},\"raw_postings_bytes\":{},\"packed_postings_bytes\":{},\
             \"graph_bytes\":{graph_bytes},\"packed_bytes_per_node\":{:.2},\
             \"raw_bytes_per_node\":{:.2}}}",
            idx.posting_count(),
            raw.postings_bytes(),
            idx.postings_bytes(),
            (idx.postings_bytes() + graph_bytes) as f64 / nodes as f64,
            (raw.postings_bytes() + graph_bytes) as f64 / nodes as f64,
        );
    }
    println!(
        "ok: packed postings {ratio:.2}x smaller than raw (gate {MIN_RATIO}x), \
         fig15a latency delta {delta_pct:+.2}% (gate {MAX_SLOWDOWN_PCT}%)"
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
