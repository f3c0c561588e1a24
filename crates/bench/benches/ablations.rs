//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * partial-result cache capacity (the §6 fixed-size cache tradeoff);
//! * cross-CN common-subexpression reuse (shared vs per-plan cache);
//! * CN-generator pruning (leaf bound + distance bound vs distance only);
//! * optimizer tiling search (cost-based vs first minimal tiling);
//! * engine plan caching (cold CN-generation + tiling per prepare vs
//!   skeleton-cache hit + instantiation only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xkw_bench::workload::{self as w, Config};
use xkw_core::exec::{self, ExecMode, PartialCache};
use xkw_core::prelude::*;

fn cache_capacity(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::MinClust, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let mut group = c.benchmark_group("ablation_cache_capacity");
    group.sample_size(10);
    for cap in [0usize, 64, 1024, 16384] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let mode = if cap == 0 {
                ExecMode::Naive
            } else {
                ExecMode::Cached { capacity: cap }
            };
            b.iter(|| {
                for plans in &plan_sets {
                    let capped = w::cap_ctssn_size(plans, 5);
                    let res = w::run(&xk, &ExecRequest::all(&capped, Join::NestedLoop(mode)));
                    std::hint::black_box(res.rows.len());
                }
            })
        });
    }
    group.finish();
}

fn cross_cn_reuse(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::MinClust, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let mut group = c.benchmark_group("ablation_cross_cn_reuse");
    group.sample_size(10);
    group.bench_function("shared_cache", |b| {
        b.iter(|| {
            for plans in &plan_sets {
                let capped = w::cap_ctssn_size(plans, 5);
                // all_plans shares one cache across plans.
                let res = w::run(&xk, &ExecRequest::all(&capped, w::cached_join()));
                std::hint::black_box(res.rows.len());
            }
        })
    });
    group.bench_function("per_plan_cache", |b| {
        b.iter(|| {
            for plans in &plan_sets {
                let capped = w::cap_ctssn_size(plans, 5);
                for (i, p) in capped.iter().enumerate() {
                    let mut cache = PartialCache::new(8192);
                    let mut stats = exec::ExecStats::default();
                    let _ = exec::eval_plan(
                        &xk.db,
                        &xk.catalog(),
                        i,
                        p,
                        w::cached(),
                        &mut cache,
                        &mut stats,
                        &mut |r| {
                            std::hint::black_box(r.score);
                            std::ops::ControlFlow::Continue(())
                        },
                    );
                }
            }
        })
    });
    group.finish();
}

fn cn_generation(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::MinClust, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let mut group = c.benchmark_group("ablation_cn_generation");
    group.sample_size(10);
    for z in [6usize, 8] {
        group.bench_with_input(BenchmarkId::new("generate", z), &z, |b, &z| {
            b.iter(|| {
                for (a, b_) in &queries {
                    let achievable = xk.master().achievable_sets(&[a, b_]);
                    let gen = CnGenerator::new(xk.tss.schema(), &achievable, 2);
                    std::hint::black_box(gen.generate(z).len());
                }
            })
        });
    }
    group.finish();
}

fn plan_cache(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::MinClust, &data);
    let queries = w::pick_author_queries(&xk, 4, 7);
    // Cold: a zero-capacity cache replans every prepare from scratch.
    let cold_engine = QueryEngine::with_plan_cache_capacity(
        xk.tss.clone(),
        xk.targets().clone(),
        xk.master().clone(),
        xk.db.clone(),
        xk.catalog().clone(),
        0,
    );
    // Warm: the default engine, its cache pre-warmed with the query
    // shape (every surname pair shares one schema partition).
    let warm_engine = xk.engine();
    for (a, b) in &queries {
        warm_engine.prepare(&[a, b], w::Z).expect("warms the cache");
    }
    let mut group = c.benchmark_group("ablation_plan_cache");
    group.sample_size(20);
    group.bench_function("prepare_cold", |b| {
        b.iter(|| {
            for (a, b_) in &queries {
                let p = cold_engine.prepare(&[a, b_], w::Z).unwrap();
                assert!(!p.plan_cache_hit);
                std::hint::black_box(p.plans.len());
            }
        })
    });
    group.bench_function("prepare_warm", |b| {
        b.iter(|| {
            for (a, b_) in &queries {
                let p = warm_engine.prepare(&[a, b_], w::Z).unwrap();
                assert!(p.plan_cache_hit);
                std::hint::black_box(p.plans.len());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    cache_capacity,
    cross_cn_reuse,
    cn_generation,
    plan_cache
);
criterion_main!(benches);
