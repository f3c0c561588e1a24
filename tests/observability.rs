//! Observability tests: EXPLAIN ANALYZE I/O attribution on a DBLP
//! instance, Chrome `trace_event` export validity, worker-panic
//! surfacing as [`XkError::WorkerPanic`], and a property test that
//! per-thread attributed I/O always sums to the pool-wide cumulative
//! counters under concurrent queries.

use proptest::prelude::*;
use std::sync::OnceLock;
use xkeyword::core::exec::{execute, ExecMode};
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;
use xkeyword::datagen::tpch;

fn cached() -> ExecMode {
    ExecMode::Cached { capacity: 1024 }
}

fn load_figure1() -> XKeyword {
    let (graph, _, _) = tpch::figure1();
    let xk = XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages: 64,
            pool_shards: 8,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    // These tests assert against the *global* span collector. A sampled
    // or forced flight record drains that collector into the record, so
    // recording is switched off here to keep concurrently-running tests
    // in this binary from stealing each other's spans. The recorder has
    // its own suite (tests/recorder.rs).
    xk.engine().recorder().set_enabled(false);
    xk
}

fn load_dblp() -> XKeyword {
    let data = DblpConfig {
        conferences: 2,
        years_per_conference: 2,
        papers_per_year: 12,
        authors: 60,
        authors_per_paper: 2,
        citations_per_paper: 3,
        vocabulary: 120,
        seed: 0xB0B,
    }
    .generate();
    let xk = XKeyword::load(
        data.graph,
        data.tss,
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages: 256,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    xk.engine().recorder().set_enabled(false);
    xk
}

/// The acceptance query: `:explain` over three DBLP author keywords must
/// print a per-operator tree whose summed attributed buffer-pool I/O
/// equals the query's own [`QueryMetrics`] I/O total, while returning
/// the same MTTONs as a plain query.
#[test]
fn explain_io_decomposes_on_three_keyword_dblp_query() {
    let xk = load_dblp();
    let engine = xk.engine();
    // Three distinct author surnames that occur in the generated data.
    let names: Vec<String> = (0..60)
        .map(|i| format!("surname{i}"))
        .filter(|s| !xk.master().containing_list(s).is_empty())
        .take(3)
        .collect();
    assert_eq!(names.len(), 3, "DBLP instance must hold 3 author surnames");
    let keywords: Vec<&str> = names.iter().map(String::as_str).collect();

    let report = engine
        .explain(&QuerySpec::all(&keywords, 8, cached()))
        .unwrap();
    let m = &report.outcome.metrics;
    assert_eq!(
        report.io_total(),
        m.io_hits + m.io_misses,
        "per-operator attributed I/O must decompose the query total"
    );
    assert!(
        report.io_total() > 0,
        "a 3-keyword query must touch the pool"
    );
    assert_eq!(report.profiles.len(), m.plans);

    let plain = engine
        .query(&QuerySpec::all(&keywords, 8, cached()))
        .unwrap();
    assert_eq!(report.outcome.mttons, plain.mttons);

    let text = report.render();
    assert!(text.contains("drive "), "missing driver operator:\n{text}");
    assert!(text.contains("probe "), "missing probe operator:\n{text}");
    assert!(text.contains("totals: plans="), "missing footer:\n{text}");

    // The hash path decomposes too, at any worker count: scan I/O sits
    // on each plan's root, there being no probe steps to charge.
    let hash = QuerySpec {
        threads: 2,
        ..QuerySpec::all_hash(&keywords, 8)
    };
    let report = engine.explain(&hash).unwrap();
    let m = &report.outcome.metrics;
    assert_eq!(report.io_total(), m.io_hits + m.io_misses);
    assert!(report.io_total() > 0);
    assert_eq!(report.profiles.len(), m.plans);
    assert_eq!(report.outcome.mttons, plain.mttons);
    assert!(!report.render().contains("probe "));
}

/// A deadline-degraded EXPLAIN still decomposes exactly: plans the
/// deadline skipped show as zero-I/O `skipped` entries, and a plan
/// aborted mid-way keeps what it measured.
#[test]
fn degraded_explain_still_decomposes_io() {
    use xkeyword::store::{FaultSpec, FaultTarget};
    let (graph, _, _) = tpch::figure1();
    let options = LoadOptions {
        decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
        pool_pages: 2,
        ..LoadOptions::default()
    };
    let xk = XKeyword::load(graph, tpch::tss_graph(), options).unwrap();
    // Installed after load so the stalls only tax the query path.
    xk.db
        .install_faults(FaultSpec::new(0x5EED).slow(FaultTarget::All, 1.0, 20_000_000));
    let spec = QuerySpec {
        deadline: Some(std::time::Duration::from_millis(70)),
        ..QuerySpec::all(&["john", "vcr"], 8, cached())
    };
    match xk.engine().explain(&spec) {
        Ok(report) => {
            let deg = &report.outcome.results.degradation;
            assert!(deg.deadline_exceeded, "20ms stalls cannot finish in 70ms");
            let m = &report.outcome.metrics;
            assert_eq!(report.io_total(), m.io_hits + m.io_misses);
            assert_eq!(report.profiles.len(), m.plans);
            let skipped = report.profiles.iter().filter(|p| p.skipped).count();
            assert_eq!(skipped, deg.plans_skipped);
            assert!(report
                .profiles
                .iter()
                .all(|p| !p.skipped || p.io_total() == 0));
        }
        // Nothing produced in time: the same typed error a plain query gets.
        Err(XkError::DeadlineExceeded) => {}
        Err(other) => panic!("expected a degraded report or DeadlineExceeded, got {other:?}"),
    }
}

/// Sabotaged plans make worker threads panic; the engine surfaces that
/// as a typed [`XkError::WorkerPanic`] carrying the index of the plan
/// the worker was evaluating, and keyword decoration (the engine layer
/// applies it in `run`) names the query in the rendered message.
#[test]
fn worker_panics_surface_as_typed_errors() {
    let xk = load_figure1();
    let mut plans = xk.plans(&["john", "vcr"], 8);
    assert!(plans.len() >= 2, "need several plans to exercise workers");
    let last = plans.len() - 1;
    let driver = plans[last].driver as usize;
    plans[last].candidates[driver] = None;
    for threads in [1usize, 2, 4] {
        let err = execute(
            &xk.db,
            &xk.catalog(),
            &ExecRequest {
                threads,
                ..ExecRequest::all(&plans, Join::NestedLoop(cached()))
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, XkError::WorkerPanic { plan: Some(p), .. } if *p == last),
            "expected WorkerPanic naming plan {last} at {threads} threads, got {err:?}"
        );
        let text = err.with_keywords(&["john", "vcr"]).to_string();
        assert!(text.contains("worker thread panicked"), "{text}");
        assert!(text.contains(&format!("plan {last}")), "{text}");
        assert!(text.contains("john, vcr"), "{text}");
    }
}

/// Runs queries with tracing enabled and checks the Chrome export is a
/// syntactically valid JSON array: `process_name`/`thread_name`
/// metadata events (phase `M`) first, then one complete `X` event per
/// span.
#[test]
fn chrome_trace_export_is_valid_trace_event_json() {
    let xk = load_figure1();
    xkeyword::obs::set_enabled(true);
    let engine = xk.engine();
    engine
        .query(&QuerySpec::all(&["john", "vcr"], 8, cached()))
        .unwrap();
    engine
        .query(&QuerySpec::all(&["us", "vcr"], 8, cached()))
        .unwrap();
    let spans = xkeyword::obs::trace::take_spans();
    assert!(!spans.is_empty(), "tracing enabled must record spans");
    assert!(spans.iter().any(|s| s.name == "query"));
    assert!(spans.iter().any(|s| s.name == "exec.plan"));
    let distinct_tids = spans
        .iter()
        .map(|s| s.tid)
        .collect::<std::collections::BTreeSet<_>>()
        .len();

    let json = xkeyword::obs::trace::chrome_trace_json(&spans);
    let value = json::parse(&json).expect("export must be valid JSON");
    let events = match value {
        json::Value::Array(events) => events,
        other => panic!("top level must be an array, got {other:?}"),
    };
    assert_eq!(
        events.len(),
        spans.len() + 1 + distinct_tids,
        "one process_name event, a thread_name per thread, then one event per span"
    );
    let mut meta_names = Vec::new();
    let mut span_events = 0usize;
    for e in &events {
        let json::Value::Object(fields) = e else {
            panic!("every trace event must be an object, got {e:?}");
        };
        let key = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let Some(json::Value::String(name)) = key("name") else {
            panic!("every trace event must carry a string name: {e:?}");
        };
        let Some(json::Value::String(ph)) = key("ph") else {
            panic!("every trace event must carry a phase: {e:?}");
        };
        assert!(matches!(key("pid"), Some(json::Value::Number(_))));
        match ph.as_str() {
            "M" => {
                if name == "thread_name" {
                    assert!(matches!(key("tid"), Some(json::Value::Number(_))));
                }
                assert_eq!(
                    span_events, 0,
                    "metadata events must precede all span events"
                );
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata event {name:?}"
                );
                let Some(json::Value::Object(args)) = key("args") else {
                    panic!("metadata event must carry args: {e:?}");
                };
                assert!(
                    args.iter()
                        .any(|(k, v)| k == "name" && matches!(v, json::Value::String(_))),
                    "metadata args must name the process/thread: {e:?}"
                );
                meta_names.push(name.clone());
            }
            "X" => {
                span_events += 1;
                assert!(matches!(key("tid"), Some(json::Value::Number(_))));
                assert!(matches!(key("ts"), Some(json::Value::Number(_))));
                assert!(matches!(key("dur"), Some(json::Value::Number(_))));
            }
            other => panic!("unexpected phase {other:?} in {e:?}"),
        }
    }
    assert_eq!(span_events, spans.len(), "one complete event per span");
    assert_eq!(
        meta_names.iter().filter(|n| *n == "process_name").count(),
        1,
        "exactly one process_name metadata event"
    );
    assert_eq!(
        meta_names.iter().filter(|n| *n == "thread_name").count(),
        distinct_tids,
        "one thread_name metadata event per distinct tid"
    );
}

/// A minimal recursive-descent JSON parser — enough to check the trace
/// export is well-formed without a serde dependency.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, *i))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::String(string(b, i)?)),
            Some(b't') => literal(b, i, "true", Value::Bool(true)),
            Some(b'f') => literal(b, i, "false", Value::Bool(false)),
            Some(b'n') => literal(b, i, "null", Value::Null),
            Some(_) => number(b, i),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", *i))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*i) {
                Some(b'"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| format!("{e}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(*i..*i + len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| format!("{e}"))?);
                    *i += len;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, String> {
        expect(b, i, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Array(out));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, String> {
        expect(b, i, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            expect(b, i, b':')?;
            let v = value(b, i)?;
            out.push((k, v));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(out));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }
}

/// Private instance for the property test below — no other test touches
/// this pool, so its global counters move only under the test's own
/// threads.
fn shared() -> &'static XKeyword {
    static XK: OnceLock<XKeyword> = OnceLock::new();
    XK.get_or_init(load_figure1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any mix of queries, thread count and per-thread workload, the
    /// per-thread `local_io` deltas (the attribution EXPLAIN and the
    /// engine metrics are built on) must sum exactly to the pool-wide
    /// cumulative counters — hits and misses separately, no I/O lost or
    /// invented under concurrency.
    #[test]
    fn attributed_io_sums_to_pool_counters(
        threads in 1usize..6,
        rounds in 1usize..8,
        picks in proptest::collection::vec(0usize..4, 1..6),
    ) {
        let xk = shared();
        let engine = xk.engine();
        let queries: [&[&str]; 4] = [&["john", "vcr"], &["us", "vcr"], &["john", "us"], &["tv"]];
        let before = xk.db.io();
        let deltas: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let b = xk.db.local_io();
                        for _ in 0..rounds {
                            for &p in &picks {
                                engine.query(&QuerySpec::all(queries[p], 8, cached())).unwrap();
                            }
                        }
                        let d = xk.db.local_io().since(b);
                        (d.hits, d.misses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let global = xk.db.io().since(before);
        let (hits, misses) = deltas
            .iter()
            .fold((0, 0), |(h, m), &(dh, dm)| (h + dh, m + dm));
        prop_assert_eq!((hits, misses), (global.hits, global.misses));
    }
}
