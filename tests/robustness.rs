//! Fault-injection robustness suite.
//!
//! The acceptance properties of the fault model (DESIGN.md §5):
//!
//! 1. **Determinism** — a transient-only fault plan (retryable read
//!    errors + slow pages) yields byte-identical results to a
//!    fault-free run, at every exec thread count.
//! 2. **Corruption is never silent** — a bit flip in a heap or
//!    clustered (index-organized B-tree) page surfaces as
//!    [`StoreError::CorruptPage`] naming the page, or as a degraded
//!    result carrying that error; never as wrong rows.
//! 3. **Deadlines are honored** — a tight deadline against slow-page
//!    faults returns a degraded partial answer within 2× the deadline,
//!    and the [`Degradation`] skipped-plan count matches the metrics
//!    the engine publishes.
//!
//! 4. **One contract** — which shape of request ran (join, `k`, worker
//!    count, profiled or not) never changes how a fault, a deadline or
//!    a retry is classified.
//!
//! CI runs this suite across a `{fault seed} × {exec threads}` matrix
//! via `XKW_FAULT_SEED` / `XKW_EXEC_THREADS`; without the env vars the
//! tests sweep both seeds and 1/2/8 threads internally.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use xkeyword::core::exec::{execute, execute_profiled, ExecMode};
use xkeyword::core::optimizer::CtssnPlan;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;
use xkeyword::store::{Db, FaultKind, FaultSpec, FaultTarget, PhysicalOptions, Row, StoreError};

fn cached() -> ExecMode {
    ExecMode::Cached { capacity: 1024 }
}

/// The two fixed seeds CI pins (override with `XKW_FAULT_SEED`).
fn fault_seeds() -> Vec<u64> {
    match std::env::var("XKW_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("XKW_FAULT_SEED must be a u64")],
        Err(_) => vec![0xA5A5, 0x5EED],
    }
}

/// Exec thread counts to sweep (override with `XKW_EXEC_THREADS`).
fn exec_threads() -> Vec<usize> {
    match std::env::var("XKW_EXEC_THREADS") {
        Ok(s) => vec![s.parse().expect("XKW_EXEC_THREADS must be a usize")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Figure 1 with a deliberately tiny buffer pool, so probes actually
/// reach the (possibly faulty) disk instead of staying pool-resident.
fn fig1_with(faults: Option<FaultSpec>, pool_pages: usize) -> XKeyword {
    let (graph, _, _) = tpch::figure1();
    XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages,
            faults,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

const QUERIES: [&[&str]; 4] = [&["john", "vcr"], &["us", "vcr"], &["john", "us"], &["tv"]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Transient-only fault plans cost retries, never answers: results
    /// are byte-identical (same rows, same order) to the fault-free
    /// run at every seed and thread count.
    #[test]
    fn transient_only_faults_preserve_results(
        p_pct in 5u32..60,
        slow_pct in 0u32..50,
        qpick in 0usize..4,
    ) {
        let p = f64::from(p_pct) / 100.0;
        let slow_p = f64::from(slow_pct) / 100.0;
        let keywords = QUERIES[qpick];
        let baseline = fig1_with(None, 4);
        let plans = baseline.plans(keywords, 8);
        let want = execute(&baseline.db, &baseline.catalog(), &ExecRequest::all(&plans, Join::NestedLoop(cached())))
            .unwrap()
            .rows;
        for seed in fault_seeds() {
            let spec = FaultSpec::new(seed)
                .rule(FaultKind::TransientRead, FaultTarget::All, p)
                .slow(FaultTarget::All, slow_p, 20_000);
            prop_assert!(spec.is_transient_only());
            let xk = fig1_with(Some(spec), 4);
            let fplans = xk.plans(keywords, 8);
            prop_assert_eq!(fplans.len(), plans.len());
            for threads in exec_threads() {
                let got = execute(&xk.db, &xk.catalog(), &ExecRequest { threads, ..ExecRequest::all(&fplans, Join::NestedLoop(cached())) })
                .unwrap();
                prop_assert_eq!(
                    &got.rows, &want,
                    "rows diverged under transient faults: seed={} threads={}", seed, threads
                );
                prop_assert!(!got.degradation.deadline_exceeded);
                prop_assert_eq!(got.degradation.plans_skipped, 0);
                prop_assert_eq!(got.degradation.plans_incomplete, 0);
                prop_assert!(got.degradation.faults.is_empty());
            }
        }
    }
}

/// With a high transient probability and a 2-page pool the fault layer
/// demonstrably fires — and every error still recovers via bounded
/// retries into the exact fault-free answer.
#[test]
fn transient_faults_fire_and_recover() {
    let want = fig1_with(None, 2)
        .engine()
        .query(&QuerySpec::all(&["john", "vcr"], 8, cached()))
        .unwrap();
    let spec = FaultSpec::new(0xA5A5).rule(FaultKind::TransientRead, FaultTarget::All, 0.9);
    let xk = fig1_with(Some(spec), 2);
    let out = xk
        .engine()
        .query(&QuerySpec::all(&["john", "vcr"], 8, cached()))
        .unwrap();
    assert_eq!(out.results.rows, want.results.rows);
    assert_eq!(out.mttons, want.mttons);
    let s = xk.db.faults().snapshot();
    assert!(s.transient > 0, "p=0.9 must inject transient errors: {s:?}");
    assert!(s.retries > 0, "recovery must spend retries: {s:?}");
    assert_eq!(s.quarantined, 0, "transient faults never quarantine");
}

/// Bit flips in heap and clustered (index-organized) pages surface as
/// [`StoreError::CorruptPage`] naming table and page — on scans and on
/// probes, with the page quarantined after retries are exhausted.
#[test]
fn corruption_is_never_silent_at_the_store() {
    let rows: Vec<Row> = (0..2000u32)
        .map(|i| vec![i % 50, i, i * 7].into())
        .collect();
    let db = Db::new(2);
    let heap = db.create_table("faulty_heap", 3, rows.clone(), PhysicalOptions::heap());
    let clustered = db.create_table(
        "faulty_clustered",
        3,
        rows,
        PhysicalOptions::clustered(&[0]),
    );
    for t in [&heap, &clustered] {
        let first = t.first_page().unwrap();
        db.disk().corrupt_page(first);
        let err = db.try_scan_all(t).unwrap_err();
        match &err {
            StoreError::CorruptPage { table, page } => {
                assert_eq!(table, t.name());
                assert_eq!(*page, first.0);
            }
            other => panic!(
                "scan of {} must report CorruptPage, got {other:?}",
                t.name()
            ),
        }
        let err = db.try_probe(t, &[0], &[7]).unwrap_err();
        assert!(
            matches!(&err, StoreError::CorruptPage { page, .. } if *page == first.0),
            "probe of {} must report CorruptPage naming page {}, got {err:?}",
            t.name(),
            first.0
        );
    }
    let s = db.faults().snapshot();
    assert!(s.checksum_failures > 0, "corruption must be caught: {s:?}");
    assert!(s.quarantined >= 2, "both corrupt pages quarantine: {s:?}");
    // Quarantined pages fail fast — no further retries are spent.
    let retries_before = db.faults().snapshot().retries;
    assert!(db.try_scan_all(&heap).is_err());
    assert_eq!(db.faults().snapshot().retries, retries_before);
}

/// Through the whole query path, a corrupted page produces either a
/// typed [`XkError::Store`] error or a degraded result whose fault
/// report names the corrupt page — and any rows that do come back are
/// a subset of the fault-free answer, never invented.
#[test]
fn corruption_degrades_queries_without_wrong_rows() {
    let want = fig1_with(None, 2)
        .engine()
        .query(&QuerySpec::all(&["john", "vcr"], 8, cached()))
        .unwrap();
    let xk = fig1_with(None, 2);
    let mut corrupted = Vec::new();
    for name in xk.db.table_names() {
        let table = xk.db.table(&name).unwrap();
        if let Some(first) = table.first_page() {
            xk.db.disk().corrupt_page(first);
            corrupted.push(first.0);
        }
    }
    assert!(!corrupted.is_empty(), "Figure 1 must materialize tables");
    match xk
        .engine()
        .query(&QuerySpec::all(&["john", "vcr"], 8, cached()))
    {
        Err(XkError::Store(StoreError::CorruptPage { page, .. })) => {
            assert!(corrupted.contains(&page), "error names a corrupted page");
        }
        Err(other) => panic!("expected CorruptPage, got {other:?}"),
        Ok(out) => {
            let deg = &out.results.degradation;
            assert!(
                deg.is_degraded() && !deg.faults.is_empty(),
                "partial answers under corruption must carry a fault report"
            );
            for (_, e) in &deg.faults {
                assert!(
                    matches!(e, StoreError::CorruptPage { page, .. } if corrupted.contains(page)),
                    "every reported fault names a corrupted page, got {e:?}"
                );
            }
            for row in &out.results.rows {
                assert!(
                    want.results.rows.contains(row),
                    "degraded results must be a subset of the true answer"
                );
            }
        }
    }
}

/// Every shape of [`ExecRequest`] over `plans` — both joins × `k`
/// none/some × the swept worker counts × profiled or not.
fn shapes(plans: &[CtssnPlan]) -> Vec<(ExecRequest<'_>, bool)> {
    let mut shapes = Vec::new();
    for join in [Join::NestedLoop(cached()), Join::Hash] {
        for k in [None, Some(5)] {
            for threads in exec_threads() {
                for profiled in [false, true] {
                    let req = ExecRequest {
                        k,
                        threads,
                        ..ExecRequest::all(plans, join)
                    };
                    shapes.push((req, profiled));
                }
            }
        }
    }
    shapes
}

fn tag(req: &ExecRequest<'_>, profiled: bool) -> String {
    format!(
        "{:?} k={:?} threads={} profiled={profiled}",
        req.join, req.k, req.threads
    )
}

fn run_shape(
    xk: &XKeyword,
    req: &ExecRequest<'_>,
    profiled: bool,
) -> Result<QueryResults, XkError> {
    if profiled {
        execute_profiled(&xk.db, &xk.catalog(), req).map(|(results, _)| results)
    } else {
        execute(&xk.db, &xk.catalog(), req)
    }
}

/// The fault, deadline and retry contract does not depend on the shape
/// of the request: unrecoverable corruption that leaves no row is a
/// typed [`XkError::Store`], a deadline that leaves no row is
/// [`XkError::DeadlineExceeded`], and transient faults cost retries —
/// reported in every shape — but never rows.
#[test]
fn one_fault_contract_for_every_request_shape() {
    let keywords = ["john", "vcr"];

    // Corruption everywhere: no plan can produce a row.
    let xk = fig1_with(None, 2);
    for name in xk.db.table_names() {
        if let Some(first) = xk.db.table(&name).unwrap().first_page() {
            xk.db.disk().corrupt_page(first);
        }
    }
    let plans = xk.plans(&keywords, 8);
    for (req, profiled) in shapes(&plans) {
        let got = run_shape(&xk, &req, profiled);
        assert!(
            matches!(got, Err(XkError::Store(StoreError::CorruptPage { .. }))),
            "{}: {:?}",
            tag(&req, profiled),
            got.map(|r| (r.rows.len(), r.degradation))
        );
    }

    // A deadline already spent: again no row, in any shape.
    let xk = fig1_with(None, 2);
    let plans = xk.plans(&keywords, 8);
    for (mut req, profiled) in shapes(&plans) {
        req.deadline = Some(Duration::ZERO);
        let got = run_shape(&xk, &req, profiled);
        assert!(
            matches!(got, Err(XkError::DeadlineExceeded)),
            "{}: {:?}",
            tag(&req, profiled),
            got.map(|r| (r.rows.len(), r.degradation))
        );
    }

    // Transient faults: the fault-free rows, undegraded, retries counted.
    let clean = fig1_with(None, 2);
    let clean_plans = clean.plans(&keywords, 8);
    let spec = FaultSpec::new(0xA5A5).rule(FaultKind::TransientRead, FaultTarget::All, 0.9);
    let xk = fig1_with(Some(spec), 2);
    let plans = xk.plans(&keywords, 8);
    for (req, profiled) in shapes(&plans) {
        let clean_req = ExecRequest {
            plans: &clean_plans,
            ..req
        };
        let want = run_shape(&clean, &clean_req, false).unwrap();
        assert_eq!(want.degradation.retries, 0);
        let got = run_shape(&xk, &req, profiled).unwrap();
        assert_eq!(got.rows, want.rows, "{}", tag(&req, profiled));
        assert!(!got.degradation.is_degraded(), "{}", tag(&req, profiled));
        assert!(
            got.degradation.retries > 0,
            "{}: recovery must report its retries",
            tag(&req, profiled)
        );
    }
}

/// A tight deadline against pervasive slow-page faults comes back —
/// degraded or as a typed timeout — within 2× the deadline, and the
/// degradation report agrees with the engine's published metrics.
#[test]
fn deadline_returns_degraded_partial_within_budget() {
    let xk = fig1_with(None, 2);
    // Installed after load so the stalls only tax the query path.
    xk.db
        .install_faults(FaultSpec::new(0x5EED).slow(FaultTarget::All, 1.0, 100_000_000));
    xkeyword::obs::set_enabled(true);
    let reg = xkeyword::obs::global();
    let skipped_before = reg.counter("xkw_plans_skipped_total").get();
    let degraded_before = reg.counter("xkw_queries_degraded_total").get();

    let deadline = Duration::from_millis(250);
    let t0 = Instant::now();
    let res = xk.engine().query(&QuerySpec {
        deadline: Some(deadline),
        ..QuerySpec::all(&["john", "vcr"], 8, cached())
    });
    let elapsed = t0.elapsed();
    assert!(
        elapsed <= deadline * 2,
        "deadline {deadline:?} must bound the query, took {elapsed:?}"
    );
    match res {
        Ok(out) => {
            let deg = &out.results.degradation;
            assert!(deg.deadline_exceeded, "slow pages must trip the deadline");
            assert!(
                deg.plans_skipped > 0 || deg.plans_incomplete > 0,
                "100ms stalls cannot finish 14 plans in 250ms: {deg:?}"
            );
            let skipped_delta = reg.counter("xkw_plans_skipped_total").get() - skipped_before;
            assert_eq!(
                skipped_delta as usize, deg.plans_skipped,
                "published skipped-plan counter must match the report"
            );
            assert_eq!(
                reg.counter("xkw_queries_degraded_total").get() - degraded_before,
                1
            );
        }
        // Nothing produced in time is also a honored deadline.
        Err(XkError::DeadlineExceeded) => {}
        Err(other) => panic!("expected degraded result or DeadlineExceeded, got {other:?}"),
    }
}
