//! Integration tests for the shared [`QueryEngine`]: plan-cache behaviour
//! across queries with fresh keywords of a familiar shape, typed error
//! paths on real data, the façade's soft-semantics contract, and a
//! concurrent smoke test of one engine shared across threads.

use std::collections::HashSet;
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::relations::PhysicalPolicy;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;

fn dblp() -> DblpConfig {
    DblpConfig {
        conferences: 2,
        years_per_conference: 2,
        papers_per_year: 6,
        authors: 12,
        authors_per_paper: 2,
        citations_per_paper: 2,
        vocabulary: 40,
        seed: 21,
    }
}

fn load() -> XKeyword {
    let d = dblp().generate();
    XKeyword::load(
        d.graph,
        d.tss,
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 4, b: 2 },
            policy: PhysicalPolicy::clustered(),
            pool_pages: 512,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

/// Picks a keyword pair with guaranteed results: two surnames sharing a
/// paper.
fn coauthor_pair(xk: &XKeyword) -> (String, String) {
    let tss = &xk.tss;
    let paper = tss
        .node_ids()
        .find(|&i| tss.node(i).name == "Paper")
        .unwrap();
    for &p in xk.targets().tos_of(paper) {
        let authors: Vec<_> = xk
            .targets()
            .edges_out(p)
            .iter()
            .filter(|(e, _)| tss.node(tss.edge(*e).to).name == "Author")
            .map(|&(_, a)| a)
            .collect();
        if authors.len() >= 2 {
            let la = xk.label(authors[0]);
            let lb = xk.label(authors[1]);
            let sa = la.split_whitespace().last().unwrap().trim_end_matches(']');
            let sb = lb.split_whitespace().last().unwrap().trim_end_matches(']');
            if sa != sb {
                return (sa.to_owned(), sb.to_owned());
            }
        }
    }
    panic!("no co-authored paper with distinct surnames");
}

/// Author surnames live only in `aname` nodes, so every pair of distinct
/// surnames partitions the schema identically (`aname` → {01, 10}): the
/// second pair — fresh keyword strings never queried before — must hit
/// the plan cache, while a different `z` must miss.
#[test]
fn fresh_keywords_of_known_shape_hit_plan_cache() {
    let xk = load();
    let e = xk.engine();
    // 12 authors → surnames surname0..surname5, each held by 2 authors.
    let cold = e.prepare(&["surname0", "surname1"], 6).unwrap();
    assert!(!cold.plan_cache_hit, "first shape plans cold");
    assert!(!cold.plans.is_empty());

    let warm = e.prepare(&["surname4", "surname5"], 6).unwrap();
    assert!(warm.plan_cache_hit, "distinct surnames, same schema shape");
    assert_eq!(cold.plans.len(), warm.plans.len());

    let other_z = e.prepare(&["surname0", "surname1"], 5).unwrap();
    assert!(!other_z.plan_cache_hit, "z is part of the plan key");
    assert_eq!(e.plan_cache_len(), 2);

    // A shape-changing query: a surname + a title word partitions the
    // schema differently (aname vs title nodes), so it misses.
    let mixed = e.prepare(&["surname2", "w0"], 6).unwrap();
    assert!(!mixed.plan_cache_hit, "surname + title word is a new shape");
    assert_eq!(e.plan_cache_len(), 3);
}

/// Engine errors are values; the façade maps them to empty results.
#[test]
fn typed_errors_and_facade_soft_semantics_agree() {
    let xk = load();
    let e = xk.engine();
    assert_eq!(
        e.query(&QuerySpec::all(&["florp", "surname0"], 6, ExecMode::Naive))
            .unwrap_err(),
        XkError::UnknownKeyword("florp".to_owned())
    );
    assert_eq!(e.prepare(&[], 6).unwrap_err(), XkError::EmptyQuery);
    assert!(matches!(
        e.query(&QuerySpec::all(
            &["surname0"],
            6,
            ExecMode::Cached { capacity: 0 }
        )),
        Err(XkError::BadMode(_))
    ));
    // The façade keeps its historical contract on the same engine.
    assert!(xk
        .query_all(&["florp", "surname0"], 6, ExecMode::Naive)
        .rows
        .is_empty());
    assert!(xk.plans(&["florp"], 6).is_empty());
    let s = e.stats();
    assert!(s.errors >= 4);
}

/// The engine's outcome equals the façade's result set, and its metrics
/// account for the stages and the query's buffer-pool traffic.
#[test]
fn engine_outcome_matches_facade_and_reports_metrics() {
    let xk = load();
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let via_facade = xk
        .query_all(&kws, 6, ExecMode::Cached { capacity: 2048 })
        .mttons();
    let out = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 2048 },
        ))
        .unwrap();
    assert_eq!(out.mttons, via_facade);
    assert!(!out.mttons.is_empty());
    assert!(out.metrics.plans > 0);
    assert!(
        out.metrics.io_hits + out.metrics.io_misses > 0,
        "probing connection relations must touch the buffer pool"
    );
    assert!(out.metrics.plan_cache_hit, "facade query warmed the cache");
}

/// One engine, many threads: every thread gets the single-threaded
/// reference answer, cumulative stats see every query, and all but the
/// warming query hit the plan cache.
#[test]
fn concurrent_queries_on_shared_engine() {
    const THREADS: usize = 4;
    let xk = load();
    let e = xk.engine();
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let reference = e
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 2048 },
        ))
        .unwrap()
        .mttons;
    assert!(!reference.is_empty());

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let kws = &kws;
                let reference = &reference;
                s.spawn(move || {
                    // Alternate modes to mix naive and cached execution.
                    let mode = if i % 2 == 0 {
                        ExecMode::Naive
                    } else {
                        ExecMode::Cached { capacity: 2048 }
                    };
                    let out = e.query(&QuerySpec::all(kws, 6, mode)).unwrap();
                    assert_eq!(&out.mttons, reference);
                    assert!(out.metrics.plan_cache_hit);
                    out.metrics.io_hits + out.metrics.io_misses
                })
            })
            .collect();
        let total_io: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total_io > 0, "per-thread I/O attribution must see traffic");
    });

    let s = e.stats();
    assert_eq!(s.queries, 1 + THREADS as u64);
    assert_eq!(s.plan_cache_misses, 1);
    assert_eq!(s.plan_cache_hits, THREADS as u64);
}

/// Top-k on the shared engine under concurrency: every thread's k results
/// are genuine results.
#[test]
fn concurrent_topk_smoke() {
    let xk = load();
    let e = xk.engine();
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let all = e
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 2048 },
        ))
        .unwrap();
    let valid: HashSet<Mtton> = all.results.rows.iter().map(|r| r.to_mtton()).collect();
    let k = 3.min(all.results.rows.len());
    assert!(k > 0);

    std::thread::scope(|s| {
        for _ in 0..3 {
            let kws = &kws;
            let valid = &valid;
            s.spawn(move || {
                let top = e
                    .query(&QuerySpec {
                        threads: 2,
                        ..QuerySpec::topk(kws, 6, k, ExecMode::Cached { capacity: 2048 })
                    })
                    .unwrap();
                assert_eq!(top.results.rows.len(), k);
                for r in &top.results.rows {
                    assert!(valid.contains(&r.to_mtton()));
                }
            });
        }
    });
}

/// The engine type is usable from plain `std::thread` APIs.
#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<EngineStats>();
    assert_send_sync::<QueryMetrics>();
}
