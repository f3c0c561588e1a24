//! Figure 15(b): all-results time vs maximum CTSSN size (Criterion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xkw_bench::workload::{self as w, Config};
use xkw_core::exec::{ExecRequest, Join};

fn bench(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let mut group = c.benchmark_group("fig15b_all");
    group.sample_size(10);
    for cfg in Config::FIG15 {
        let xk = w::dblp_instance(cfg, &data);
        let queries = w::pick_author_queries(&xk, 3, 7);
        let plan_sets: Vec<Vec<_>> = queries
            .iter()
            .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
            .collect();
        let hash = cfg == Config::MinNClustNIndx;
        for m in [3usize, 5] {
            group.bench_with_input(BenchmarkId::new(cfg.name(), m), &m, |b, &m| {
                b.iter(|| {
                    for plans in &plan_sets {
                        let capped = w::cap_ctssn_size(plans, m);
                        let res = if hash {
                            w::run(&xk, &ExecRequest::all(&capped, Join::Hash))
                        } else {
                            w::run(&xk, &ExecRequest::all(&capped, w::cached_join()))
                        };
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
