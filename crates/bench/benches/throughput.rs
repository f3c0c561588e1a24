//! Aggregate client throughput versus client-thread count on a shared
//! engine — the concurrency experiment behind `BENCH_concurrency.json`.
//!
//! Models the paper's web-demo deployment (§2, Fig. 4): one loaded
//! XKeyword instance, N client threads pulling keyword queries from a
//! shared work queue. The buffer pool is sized *below* the working set
//! and given a parked miss penalty (≥ the park threshold, so simulated
//! I/O waits block instead of spinning — see
//! `xkw_store::buffer::simulate_latency`), which is what lets waits
//! overlap across clients the way real disk I/O does. Throughput should
//! then scale with client threads even on a single core, because the
//! sharded pool admits concurrent fetches and the penalties park.
//!
//! Usage: `cargo bench --bench throughput [-- --quick]`
//! `--quick` trims thread counts and query volume to a CI smoke run.
//! Each configuration prints one `{"threads":..}` JSON line for easy
//! harvesting.

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xkw_bench::workload::{self as w};
use xkw_core::prelude::*;

/// Pool pages — deliberately far below even a single query's working set
/// so the steady state keeps missing and paying the parked penalty.
const POOL_PAGES: usize = 8;
/// Parked miss penalty; must be ≥ the 100 µs park threshold.
const MISS_PENALTY: Duration = Duration::from_micros(500);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let data = w::bench_tpch_config();
    let d = data.generate();
    let xk = XKeyword::load(
        d.graph,
        d.tss,
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: w::M, b: w::B },
            policy: PhysicalPolicy::clustered(),
            pool_pages: POOL_PAGES,
            pool_shards: 16,
            build_blobs: false,
            ..LoadOptions::default()
        },
    )
    .expect("TPC-H data conforms");
    let queries = w::pick_product_queries(&xk, 6);
    let engine = xk.engine();

    // Warm the plan cache so the measured region is execution, then turn
    // the parked miss penalty on. The workload is the §7 "all results"
    // regime (full scans + hash joins): scans stream through relations
    // far larger than the pool, so per-query misses are stable no matter
    // how many clients run — unlike probe workloads, where concurrent
    // clients evict each other's reusable pages and inflate misses.
    for (a, b) in &queries {
        let out = engine
            .query(&QuerySpec::all_hash(&[a, b], w::Z))
            .expect("warmup");
        std::hint::black_box(out.results.rows.len());
    }
    xk.db.pool().set_miss_penalty(MISS_PENALTY);

    let total_queries: usize = if quick { 24 } else { 96 };
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    println!(
        "throughput: {} disk pages, pool {} pages x {} shards, penalty {:?}, {} queries/config",
        xk.db.disk_pages(),
        xk.db.pool().capacity(),
        xk.db.pool().shard_count(),
        MISS_PENALTY,
        total_queries
    );

    let registry = xkw_obs::Registry::new();
    let mut qps_by_threads: Vec<(usize, f64)> = Vec::new();
    for &t in thread_counts {
        let latency = registry.histogram(&format!("bench_query_latency_ns{{threads=\"{t}\"}}"));
        let next = AtomicUsize::new(0);
        let io_before = xk.db.io();
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..t {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total_queries {
                        break;
                    }
                    let (a, b) = &queries[i % queries.len()];
                    let q0 = Instant::now();
                    let out = engine
                        .query(&QuerySpec::all_hash(&[a, b], w::Z))
                        .expect("bench query");
                    latency.observe_duration(q0.elapsed());
                    std::hint::black_box(out.results.rows.len());
                });
            }
        });
        let wall = start.elapsed();
        let qps = total_queries as f64 / wall.as_secs_f64();
        qps_by_threads.push((t, qps));
        let io = xk.db.io().since(io_before);
        let lat = latency.summary();
        println!(
            "{{\"threads\":{t},\"queries\":{total_queries},\"wall_ms\":{:.1},\"qps\":{qps:.2},\
             \"io_hits\":{},\"io_misses\":{},\
             \"latency_ms\":{{\"p50\":{:.2},\"p95\":{:.2},\"p99\":{:.2},\"max\":{:.2}}}}}",
            wall.as_secs_f64() * 1e3,
            io.hits,
            io.misses,
            lat.p50 as f64 / 1e6,
            lat.p95 as f64 / 1e6,
            lat.p99 as f64 / 1e6,
            lat.max as f64 / 1e6,
        );
    }

    let qps1 = qps_by_threads
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, q)| *q)
        .unwrap_or(f64::NAN);
    for (t, qps) in &qps_by_threads {
        if *t > 1 {
            println!("speedup @{t} threads: {:.2}x", qps / qps1);
        }
    }
}
