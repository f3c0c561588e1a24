//! Figure 15(a): top-K execution time per decomposition (Criterion).
//!
//! Micro-scale version of `experiments fig15a`: fixed dataset, K sweep,
//! the five §7 decomposition configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xkw_bench::workload::{self as w, Config};
use xkw_core::exec::ExecRequest;

fn bench(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let mut group = c.benchmark_group("fig15a_topk");
    group.sample_size(10);
    for cfg in Config::FIG15 {
        let xk = w::dblp_instance(cfg, &data);
        let queries = w::pick_author_queries(&xk, 3, 7);
        let plan_sets: Vec<Vec<_>> = queries
            .iter()
            .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
            .collect();
        for k in [1usize, 20, 100] {
            group.bench_with_input(BenchmarkId::new(cfg.name(), k), &k, |b, &k| {
                b.iter(|| {
                    for plans in &plan_sets {
                        let res = w::run(
                            &xk,
                            &ExecRequest {
                                threads: 4,
                                ..ExecRequest::topk(plans, w::cached_join(), k)
                            },
                        );
                        std::hint::black_box(res.rows.len());
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
