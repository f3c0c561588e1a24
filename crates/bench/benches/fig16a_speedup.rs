//! Figure 16(a): naive vs cached execution vs maximum CTSSN size
//! (Criterion). The ratio of the two series is the paper's speedup plot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xkw_bench::workload::{self as w, Config};
use xkw_core::exec::{ExecMode, ExecRequest, Join};

fn bench(c: &mut Criterion) {
    let mut data = w::bench_dblp_config();
    data.papers_per_year = 15;
    data.citations_per_paper = 4;
    let xk = w::dblp_instance(Config::MinClust, &data);
    let queries = w::pick_author_queries(&xk, 3, 7);
    let plan_sets: Vec<Vec<_>> = queries
        .iter()
        .map(|(a, b)| w::plans_for(&xk, &[a, b], w::Z))
        .collect();
    let mut group = c.benchmark_group("fig16a_speedup");
    group.sample_size(10);
    for m in [2usize, 4, 5] {
        for (mode_name, mode) in [("naive", ExecMode::Naive), ("cached", w::cached())] {
            group.bench_with_input(BenchmarkId::new(mode_name, m), &m, |b, &m| {
                b.iter(|| {
                    for plans in &plan_sets {
                        let capped = w::cap_ctssn_size(plans, m);
                        let res = w::run(&xk, &ExecRequest::all(&capped, Join::NestedLoop(mode)));
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
