//! Concurrency tests: many client threads hammering one shared
//! [`QueryEngine`], the sharded buffer pool's equivalence with a
//! single-lock pool, top-k determinism across worker-thread counts, and
//! the cold-start contract of [`BufferPool::clear`].

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;
use xkeyword::store::{BufferPool, Disk, PageId, PAGE_U32S};

fn load_figure1() -> XKeyword {
    let (graph, _, _) = tpch::figure1();
    XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages: 64,
            pool_shards: 8,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

/// Eight clients pull a mixed stream of known and unknown keyword
/// queries off a shared queue against one engine. Every known query must
/// return exactly the single-threaded reference rows, unknown keywords
/// must keep reporting their typed error, and the per-thread
/// `local_snapshot` I/O deltas must add up to the pool's global delta —
/// the sharded pool may not lose or invent I/O under concurrency.
#[test]
fn stress_shared_engine_eight_threads() {
    let xk = load_figure1();
    let engine = xk.engine();
    let queries: &[&[&str]] = &[
        &["john", "vcr"],
        &["us", "vcr"],
        &["john", "us"],
        &["florp"],          // unknown keyword
        &["john", "zzzzzz"], // known + unknown
        &["tv"],
    ];
    // Single-threaded reference results (unknowns recorded as None).
    let reference: Vec<Option<Vec<_>>> = queries
        .iter()
        .map(|kws| {
            engine
                .query(&QuerySpec::all(kws, 8, ExecMode::Cached { capacity: 1024 }))
                .ok()
                .map(|o| o.results.rows)
        })
        .collect();

    const THREADS: usize = 8;
    const TOTAL: usize = 240;
    let global_before = xk.db.io();
    let next = AtomicUsize::new(0);
    let local_deltas: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let before = xk.db.local_io();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= TOTAL {
                            break;
                        }
                        let kws = queries[i % queries.len()];
                        let got = engine
                            .query(&QuerySpec::all(kws, 8, ExecMode::Cached { capacity: 1024 }))
                            .ok()
                            .map(|o| o.results.rows);
                        assert_eq!(
                            got,
                            reference[i % queries.len()],
                            "thread-shared query {kws:?} diverged from reference"
                        );
                    }
                    let d = xk.db.local_io().since(before);
                    (d.hits, d.misses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let global = xk.db.io().since(global_before);
    let (hits, misses) = local_deltas
        .iter()
        .fold((0, 0), |(h, m), &(dh, dm)| (h + dh, m + dm));
    assert_eq!(
        (hits, misses),
        (global.hits, global.misses),
        "per-thread I/O attributions must sum to the pool's global delta"
    );
    assert!(global.logical() > 0, "the stress run must touch the pool");
}

/// `query_topk` must return the identical result set no matter how many
/// worker threads evaluate the plans — the paper-example queries at
/// several `k`, threads ∈ {1, 2, 8}.
#[test]
fn topk_deterministic_across_thread_counts() {
    let xk = load_figure1();
    let engine = xk.engine();
    for kws in [&["john", "vcr"][..], &["us", "vcr"], &["john", "us"]] {
        for k in [1usize, 3, 10, 10_000] {
            let reference = engine
                .query(&QuerySpec::topk(
                    kws,
                    8,
                    k,
                    ExecMode::Cached { capacity: 1024 },
                ))
                .unwrap();
            for threads in [2usize, 8] {
                let got = engine
                    .query(&QuerySpec {
                        threads,
                        ..QuerySpec::topk(kws, 8, k, ExecMode::Cached { capacity: 1024 })
                    })
                    .unwrap();
                assert_eq!(
                    got.results.rows, reference.results.rows,
                    "top-{k} of {kws:?} diverged at {threads} threads"
                );
                assert_eq!(got.mttons, reference.mttons);
            }
        }
    }
}

/// After `clear` the pool must serve from a cold state (every resident
/// page gone, next fetches are misses) while queries still return the
/// same rows.
#[test]
fn clear_cold_starts_without_changing_results() {
    let xk = load_figure1();
    let engine = xk.engine();
    let warm = engine
        .query(&QuerySpec::all(&["john", "vcr"], 8, ExecMode::Naive))
        .unwrap();
    let before = xk.db.io();
    xk.db.pool().clear();
    assert_eq!(xk.db.pool().resident(), 0, "clear must empty every shard");
    let cold = engine
        .query(&QuerySpec::all(&["john", "vcr"], 8, ExecMode::Naive))
        .unwrap();
    assert_eq!(cold.results.rows, warm.results.rows);
    let after = xk.db.io().since(before);
    assert!(
        after.misses > 0,
        "a cleared pool must re-read pages from disk"
    );
}

/// Builds a disk of `pages` pages whose first word is the page number.
fn disk_with(pages: usize) -> (Disk, Vec<PageId>) {
    let disk = Disk::new();
    let ids = (0..pages)
        .map(|i| {
            let mut data = [0u32; PAGE_U32S];
            data[0] = i as u32;
            disk.append(data)
        })
        .collect();
    (disk, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any access sequence and any capacity/shard split, a sharded
    /// pool serves byte-identical pages to a single-lock pool over the
    /// same disk, and both account every access as a hit or a miss.
    #[test]
    fn sharded_pool_matches_single_lock_pool(
        accesses in proptest::collection::vec(0usize..48, 1..200),
        capacity in 1usize..64,
        shards in 1usize..16,
    ) {
        let (disk, ids) = disk_with(48);
        let single = BufferPool::with_shards(capacity, 1);
        let sharded = BufferPool::with_shards(capacity, shards);
        for &a in &accesses {
            let want = disk.read(ids[a]);
            let from_single = single.fetch(&disk, ids[a]);
            let from_sharded = sharded.fetch(&disk, ids[a]);
            prop_assert_eq!(&from_single, &want);
            prop_assert_eq!(&from_sharded, &want);
        }
        prop_assert_eq!(single.snapshot().logical(), accesses.len() as u64);
        prop_assert_eq!(sharded.snapshot().logical(), accesses.len() as u64);
    }
}

/// One shared instance per postings format for the top-k oracle
/// proptest — loading Figure 1 per case would dominate the run.
fn shared_figure1(format: PostingsFormatKind) -> &'static XKeyword {
    static RAW: std::sync::OnceLock<XKeyword> = std::sync::OnceLock::new();
    static PACKED: std::sync::OnceLock<XKeyword> = std::sync::OnceLock::new();
    let cell = match format {
        PostingsFormatKind::Raw => &RAW,
        PostingsFormatKind::Packed => &PACKED,
    };
    cell.get_or_init(|| {
        let (graph, _, _) = tpch::figure1();
        XKeyword::load(
            graph,
            tpch::tss_graph(),
            LoadOptions {
                decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
                pool_pages: 64,
                pool_shards: 8,
                postings_format: format,
                ..LoadOptions::default()
            },
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The byte-identity pin of the top-k early-termination work: for
    /// every query shape, pruned top-k ≡ unpruned top-k ≡ the brute-force
    /// oracle (full evaluation sorted by `(score, plan, assignment)` and
    /// truncated to k), at 1/2/8 worker threads, k ∈ {1, 5, 20}, in both
    /// postings formats. Pruning may only change how much work is *not*
    /// done — never a returned row.
    #[test]
    fn pruned_topk_equals_unpruned_and_brute_force_oracle(qi in 0usize..5) {
        let queries: [&[&str]; 5] = [
            &["john", "vcr"],
            &["us", "vcr"],
            &["john", "us"],
            &["tv"],
            &["vcr", "dvd"],
        ];
        let kws = queries[qi];
        let mode = ExecMode::Cached { capacity: 1024 };
        for format in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
            let engine = shared_figure1(format).engine();
            let mut oracle = engine.query(&QuerySpec::all(kws, 8, mode)).unwrap().results.rows;
            oracle.sort_by(|a, b| {
                (a.score, a.plan, &a.assignment).cmp(&(b.score, b.plan, &b.assignment))
            });
            for k in [1usize, 5, 20] {
                let mut want = oracle.clone();
                want.truncate(k);
                for threads in [1usize, 2, 8] {
                    for prune in [true, false] {
                        let got = engine
                            .query(&QuerySpec { threads, prune, ..QuerySpec::topk(kws, 8, k, mode) })
                            .unwrap();
                        prop_assert_eq!(
                            &got.results.rows,
                            &want,
                            "{:?} diverged: {} k={} threads={} prune={}",
                            kws, format, k, threads, prune
                        );
                        prop_assert_eq!(got.results.prune.enabled, prune);
                    }
                }
            }
        }
    }
}
