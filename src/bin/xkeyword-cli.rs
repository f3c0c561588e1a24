//! `xkeyword-cli` — keyword proximity search over an XML file.
//!
//! ```text
//! xkeyword-cli [FILE.xml] [--query "kw1 kw2 ..."] [--z N] [--top K] \
//!              [--k N] [--no-prune] [--threads N] [--pool-shards N] \
//!              [--postings raw|packed] [--explain] [--stats] \
//!              [--trace-out FILE] [--deadline-ms N] [--faults SPEC] \
//!              [--query-log FILE] [--slow-ms N] [--connect ADDR]
//! ```
//!
//! `--connect ADDR` switches to client mode: instead of loading a
//! document, queries are sent to a running `xkeyword-serve` over the
//! binary wire protocol (one-shot with `--query`, interactive
//! otherwise; `:stats` fetches the server's counters). `--z`, `--k`,
//! `--no-prune` and `--deadline-ms` map onto request fields; typed
//! server errors — including `Overloaded` sheds, with their retry
//! hints — print as one-line messages.
//!
//! With a file: parses it, infers the schema and target segments, builds
//! the XKeyword decomposition and answers queries. Without a file: loads
//! the paper's Figure 1 document. Without `--query`: reads queries from
//! stdin, one per line (an interactive loop in the spirit of the paper's
//! web demo, Fig. 4); `:stats` prints the engine's cumulative statistics
//! plus buffer-pool occupancy per shard, `:metrics` dumps the metrics
//! registry in Prometheus text format, and `:explain <kw...>` runs the
//! query in EXPLAIN ANALYZE mode, printing every plan's per-operator
//! profile (rows in/out, probe counts, attributed buffer-pool I/O).
//! Every query reports its per-stage timings, plan-cache outcome and
//! attributable buffer-pool I/O; `--stats` additionally prints the
//! cumulative [`EngineStats`] after each query. `--explain` runs the
//! one-shot `--query` in EXPLAIN ANALYZE mode; `--trace-out FILE`
//! enables tracing and writes every recorded span as Chrome
//! `trace_event` JSON (load it in `about:tracing` / Perfetto) on exit.
//!
//! `--k N` switches execution to the true top-k path: workers stop
//! claiming — and abort mid-plan — any plan whose score bound can no
//! longer beat the current k-th best result, and each plan stops
//! producing after k rows. The returned rows are byte-identical to
//! truncating a full evaluation; `--no-prune` disables the threshold
//! pruning for A/B runs. `k` must be a positive integer (0 or a
//! non-number is rejected up front, like `--postings`). Interactively,
//! `:topk N` sets or changes `k` for subsequent queries.
//!
//! `--deadline-ms N` bounds each query's evaluation: rows found in time
//! are returned with a degradation note, and a query that produced
//! nothing before the deadline fails cleanly. `--faults SPEC` arms the
//! storage fault-injection layer (e.g.
//! `seed=42;transient:p=0.05;slow:table=FREE,ns=200000`); `:faults`
//! prints the cumulative injected-fault counters. Any `XkError` in
//! one-shot `--query` mode prints a one-line message and exits
//! nonzero; malformed flag values are rejected up front.
//!
//! `--wal-dir PATH` arms the durable write path: documents added with
//! the interactive `:ingest FILE` command (and removed with
//! `:delete ID`) are logged to a write-ahead log under PATH before the
//! indexes are updated, and a restart pointing at the same directory
//! replays the surviving log — crash-safe incremental ingestion.
//! `--fsync {always,batch,off}` picks the log's fsync policy (strictly
//! parsed, like `--postings`). `:stats` reports the WAL counters.
//!
//! The engine's flight recorder is always on: `--slow-ms N` sets the
//! slow-query threshold (a positive integer; 0 or a non-number is
//! rejected like `--k`), `--query-log FILE` writes every retained
//! flight record as JSON-lines on exit (the file must be writable —
//! checked up front), `:slow` renders the slow-query log with each
//! entry's auto-captured EXPLAIN profile, and `:top` shows the windowed
//! dashboard (qps, latency quantiles, pool hit rate, degradation rate)
//! plus recent store events.

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::io::BufRead;
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::ranking::{rank, IdfWeights, RankingConfig};
use xkeyword::core::xkeyword::DecompositionSpec;

struct Args {
    file: Option<String>,
    /// Client mode: query a running `xkeyword-serve` at this address
    /// instead of loading a document in-process.
    connect: Option<std::net::SocketAddr>,
    query: Option<String>,
    z: usize,
    top: usize,
    /// Top-k execution with threshold pruning when set; full evaluation
    /// otherwise.
    k: Option<usize>,
    /// Threshold pruning on the top-k path (`--no-prune` clears it).
    prune: bool,
    threads: usize,
    pool_shards: usize,
    postings: PostingsFormatKind,
    explain: bool,
    stats: bool,
    trace_out: Option<String>,
    deadline: Option<std::time::Duration>,
    faults: Option<xkeyword::store::FaultSpec>,
    /// JSON-lines flight-record export target, written on exit.
    query_log: Option<String>,
    /// Slow-query threshold override, milliseconds.
    slow_ms: Option<u64>,
    /// Write-ahead log directory — arms the durable write path.
    wal_dir: Option<String>,
    /// WAL fsync policy (`always` / `batch` / `off`).
    fsync: xkeyword::store::FsyncPolicy,
}

/// The value following `flag`, or a one-line error.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Strictly parses a top-k count: a positive integer. Zero asks for no
/// results at all and is rejected like a non-number, matching the
/// `--postings` convention.
fn parse_k(v: &str, flag: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(k) if k > 0 => Ok(k),
        _ => Err(format!("invalid value {v:?} for {flag}")),
    }
}

/// Strictly parses a numeric flag value — a malformed number is an
/// error, not a silent fallback to the default.
fn flag_num<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = flag_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        file: None,
        connect: None,
        query: None,
        z: 8,
        top: 10,
        k: None,
        prune: true,
        threads: 1,
        pool_shards: 0,
        postings: PostingsFormatKind::from_env(),
        explain: false,
        stats: false,
        trace_out: None,
        deadline: None,
        faults: None,
        query_log: None,
        slow_ms: None,
        wal_dir: None,
        fsync: xkeyword::store::FsyncPolicy::Always,
    };
    let mut it = argv;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => {
                let v = flag_value(&mut it, "--connect")?;
                args.connect = Some(
                    v.parse()
                        .map_err(|_| format!("invalid value {v:?} for --connect"))?,
                );
            }
            "--query" => args.query = Some(flag_value(&mut it, "--query")?),
            "--z" => args.z = flag_num(&mut it, "--z")?,
            "--top" => args.top = flag_num(&mut it, "--top")?,
            "--k" => args.k = Some(parse_k(&flag_value(&mut it, "--k")?, "--k")?),
            "--no-prune" => args.prune = false,
            "--threads" => args.threads = flag_num(&mut it, "--threads")?,
            "--pool-shards" => args.pool_shards = flag_num(&mut it, "--pool-shards")?,
            "--postings" => args.postings = flag_num(&mut it, "--postings")?,
            "--explain" => args.explain = true,
            "--stats" => args.stats = true,
            "--trace-out" => args.trace_out = Some(flag_value(&mut it, "--trace-out")?),
            "--deadline-ms" => {
                let ms: u64 = flag_num(&mut it, "--deadline-ms")?;
                args.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--faults" => {
                let spec = flag_value(&mut it, "--faults")?;
                args.faults = Some(
                    xkeyword::store::FaultSpec::parse(&spec)
                        .map_err(|e| format!("invalid --faults spec: {e}"))?,
                );
            }
            "--query-log" => args.query_log = Some(flag_value(&mut it, "--query-log")?),
            "--wal-dir" => args.wal_dir = Some(flag_value(&mut it, "--wal-dir")?),
            "--fsync" => args.fsync = flag_num(&mut it, "--fsync")?,
            "--slow-ms" => {
                // A zero threshold would flag every query slow — reject
                // it like a non-number, matching the --k convention.
                args.slow_ms =
                    Some(parse_k(&flag_value(&mut it, "--slow-ms")?, "--slow-ms")? as u64);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: xkeyword-cli [FILE.xml] [--query \"kw1 kw2\"] [--z N] [--top K] \
                     [--k N] [--no-prune] [--threads N] [--pool-shards N] \
                     [--postings raw|packed] [--explain] [--stats] [--trace-out FILE] \
                     [--deadline-ms N] [--faults SPEC] [--query-log FILE] [--slow-ms N] \
                     [--wal-dir PATH] [--fsync always|batch|off] [--connect ADDR]"
                );
                std::process::exit(0);
            }
            _ if !a.starts_with('-') => args.file = Some(a),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let mut args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}; try --help");
        std::process::exit(2);
    });
    if let Some(addr) = args.connect {
        // Client mode: no local document, the server evaluates.
        std::process::exit(run_client(addr, &args));
    }
    if args.trace_out.is_some() {
        // Turn tracing + metrics on before the load stage so its spans
        // (load.targets, load.master, ...) land in the trace too.
        xkeyword::obs::set_enabled(true);
    }
    if let Some(path) = &args.query_log {
        // Fail fast: an unwritable log target should not cost a full
        // load stage before being reported.
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            eprintln!("cannot open query log {path}: {e}");
            std::process::exit(1);
        }
    }
    let options = LoadOptions {
        decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
        pool_shards: args.pool_shards,
        exec_threads: args.threads,
        faults: args.faults.clone(),
        postings_format: args.postings,
        wal_dir: args.wal_dir.clone().map(std::path::PathBuf::from),
        fsync: args.fsync,
        ..LoadOptions::default()
    };
    let xk = match &args.file {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            XKeyword::load_xml(&text, options).unwrap_or_else(|e| {
                eprintln!("cannot load {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            eprintln!("(no file given — loading the paper's Figure 1 document)");
            let (graph, _, _) = xkeyword::datagen::tpch::figure1();
            XKeyword::load(graph, xkeyword::datagen::tpch::tss_graph(), options).unwrap_or_else(
                |e| {
                    eprintln!("cannot load the built-in Figure 1 document: {e}");
                    std::process::exit(1);
                },
            )
        }
    };
    eprintln!(
        "loaded: {} target objects, {} segments, {} connection relations, {} keywords",
        xk.targets().len(),
        xk.tss.node_count(),
        xk.catalog().len(),
        xk.master().keyword_count()
    );
    if args.wal_dir.is_some() {
        eprintln!(
            "wal: {} documents recovered ({} replays)",
            xk.documents().len(),
            xk.recoveries()
        );
    }
    if let Some(ms) = args.slow_ms {
        xk.engine()
            .recorder()
            .set_slow_threshold_ns(ms.saturating_mul(1_000_000));
    }

    if let Some(q) = &args.query {
        let ok = if args.explain {
            run_explain(&xk, q, &args)
        } else {
            run_query(&xk, q, &args)
        };
        write_trace(&xk, &args);
        write_query_log(&xk, &args);
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    eprintln!(
        "enter keyword queries (one per line; `:stats` engine + pool stats, \
         `:metrics` Prometheus dump, `:explain <kw...>` plan profiles, \
         `:topk N` top-k execution, `:ingest FILE` add a document, \
         `:delete ID` remove one, `:faults` injected-fault counters, \
         `:slow` slow-query log, `:top` windowed dashboard, \
         ctrl-D to quit):"
    );
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":stats" {
            print_stats(&xk);
            continue;
        }
        if line == ":metrics" {
            print_metrics(&xk);
            continue;
        }
        if line == ":faults" {
            print_faults(&xk);
            continue;
        }
        if line == ":slow" {
            print!("{}", xk.engine().slow_log(20));
            continue;
        }
        if line == ":top" {
            print!("{}", xk.engine().recorder().dashboard());
            let events = xkeyword::obs::recorder::events().recent(5);
            if !events.is_empty() {
                println!("  recent store events:");
                for ev in events {
                    println!("    [{}] {}", ev.kind, ev.detail);
                }
            }
            continue;
        }
        if let Some(v) = line.strip_prefix(":topk") {
            match parse_k(v.trim(), ":topk") {
                Ok(k) => {
                    args.k = Some(k);
                    println!("top-k set to {k}");
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(":explain ") {
            run_explain(&xk, q, &args);
            continue;
        }
        if let Some(path) = line.strip_prefix(":ingest ") {
            run_ingest(&xk, path.trim());
            continue;
        }
        if let Some(id) = line.strip_prefix(":delete ") {
            run_delete(&xk, id.trim());
            continue;
        }
        run_query(&xk, line, &args);
    }
    write_trace(&xk, &args);
    write_query_log(&xk, &args);
}

/// Client mode: sends queries to a running `xkeyword-serve`. Returns
/// the process exit code (0 = all queries succeeded, 1 = a query or
/// the connection failed).
fn run_client(addr: std::net::SocketAddr, args: &Args) -> i32 {
    use xkeyword::serve::Client;
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return 1;
        }
    };
    eprintln!("connected to {addr}");
    let mut k = args.k;
    if let Some(q) = &args.query {
        return if client_query(&mut client, q, k, args) {
            0
        } else {
            1
        };
    }
    eprintln!(
        "enter keyword queries (one per line; `:stats` server counters, \
         `:topk N` top-k execution, ctrl-D to quit):"
    );
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":stats" {
            match client.stats() {
                Ok(s) => print_server_stats(&s),
                Err(e) => println!("stats error: {e}"),
            }
            continue;
        }
        if let Some(v) = line.strip_prefix(":topk") {
            match parse_k(v.trim(), ":topk") {
                Ok(n) => {
                    k = Some(n);
                    println!("top-k set to {n}");
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        client_query(&mut client, line, k, args);
    }
    0
}

/// Sends one query over the wire, following pagination to the end, and
/// prints the rows with server-side metrics. Returns success.
fn client_query(
    client: &mut xkeyword::serve::Client,
    query: &str,
    k: Option<usize>,
    args: &Args,
) -> bool {
    use xkeyword::serve::proto::FLAG_NO_PRUNE;
    use xkeyword::serve::QueryOutcome;
    let req = xkeyword::serve::QueryRequest {
        z: args.z as u16,
        k: k.unwrap_or(0) as u32,
        deadline_ms: args
            .deadline
            .map_or(0, |d| d.as_millis().min(u32::MAX as u128) as u32),
        flags: if args.prune { 0 } else { FLAG_NO_PRUNE },
        keywords: query.split_whitespace().map(str::to_owned).collect(),
        ..Default::default()
    };
    match client.query_all_pages(&req) {
        Ok(QueryOutcome::Results(r)) => {
            let m = &r.metrics;
            println!(
                "{} results ({} candidate networks, {}; server exec {:?} of {:?} total; \
                 io {} hits / {} misses)",
                r.total_rows,
                m.plans,
                if m.plan_cache_hit {
                    "plan-cache hit"
                } else {
                    "cold"
                },
                std::time::Duration::from_nanos(m.exec_ns),
                std::time::Duration::from_nanos(m.total_ns),
                m.io_hits,
                m.io_misses
            );
            let d = &r.degradation;
            if d.is_degraded() {
                println!(
                    "  DEGRADED: {} plans skipped, {} incomplete, {} faults, {} retries{}",
                    d.plans_skipped,
                    d.plans_incomplete,
                    d.faults,
                    d.retries,
                    if d.deadline_exceeded {
                        " (deadline exceeded)"
                    } else {
                        ""
                    }
                );
            }
            for row in r.rows.iter().take(args.top) {
                let nodes: Vec<String> = row.assignment.iter().map(u32::to_string).collect();
                println!(
                    "  size {:>2} plan {:>3}: nodes [{}]",
                    row.score,
                    row.plan,
                    nodes.join(", ")
                );
            }
            true
        }
        Ok(QueryOutcome::Error(e)) => {
            if e.retry_after_ms > 0 {
                println!(
                    "query error: {:?}: {} (retry after {}ms)",
                    e.code, e.message, e.retry_after_ms
                );
            } else {
                println!("query error: {:?}: {}", e.code, e.message);
            }
            false
        }
        Err(e) => {
            println!("query error: transport: {e}");
            false
        }
    }
}

/// Prints a server counter snapshot (the Stats frame).
fn print_server_stats(s: &xkeyword::serve::StatsResponse) {
    println!(
        "server: {} connections ({} rejected), {} requests, {} responses; \
         {} shed, {} quota-shed, {} protocol errors, {} request errors",
        s.connections,
        s.connections_rejected,
        s.requests,
        s.responses,
        s.shed,
        s.quota_shed,
        s.protocol_errors,
        s.request_errors
    );
    println!(
        "  inflight {} (peak {}); degraded {} ({} plans skipped, {} incomplete, {} faults)",
        s.inflight,
        s.inflight_peak,
        s.degraded,
        s.plans_skipped,
        s.plans_incomplete,
        s.query_faults
    );
    println!(
        "  engine: {} queries, {} errors, {} plan-cache hits",
        s.engine_queries, s.engine_errors, s.engine_plan_cache_hits
    );
}

/// Ingests one XML file through the incremental write path.
fn run_ingest(xk: &XKeyword, path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {path}: {e}");
            return;
        }
    };
    match xk.insert_document(&text) {
        Ok(doc) => println!(
            "ingested {path} as document {doc} ({} target objects, {} keywords)",
            xk.targets().len(),
            xk.master().keyword_count()
        ),
        Err(e) => println!("ingest error: {e}"),
    }
}

/// Deletes a previously ingested document by id.
fn run_delete(xk: &XKeyword, id: &str) {
    let Ok(doc) = id.parse::<u64>() else {
        println!("error: invalid value {id:?} for :delete");
        return;
    };
    match xk.delete_document(doc) {
        Ok(()) => println!("deleted document {doc}"),
        Err(e) => println!("delete error: {e}"),
    }
}

/// Prints the storage fault layer's cumulative counters.
fn print_faults(xk: &XKeyword) {
    let f = xk.db.faults();
    if !f.armed() {
        println!("faults: layer disarmed (start with --faults SPEC to arm it)");
        return;
    }
    let s = f.snapshot();
    println!(
        "faults: {} transient, {} slow, {} bit flips, {} torn writes; \
         {} checksum failures, {} retries, {} pages quarantined",
        s.transient,
        s.slow,
        s.bit_flips,
        s.torn_writes,
        s.checksum_failures,
        s.retries,
        s.quarantined
    );
}

/// Dumps every span recorded so far as Chrome `trace_event` JSON. Spans
/// the flight recorder drained into sampled records are merged back in
/// (deduplicated by span id), so forced-capture queries still show up.
fn write_trace(xk: &XKeyword, args: &Args) {
    let Some(path) = &args.trace_out else { return };
    let mut spans = xkeyword::obs::trace::take_spans();
    for rec in xk.engine().recorder().records() {
        spans.extend(rec.spans.iter().cloned());
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans.dedup_by_key(|s| s.id);
    let json = xkeyword::obs::trace::chrome_trace_json(&spans);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {} spans to {path}", spans.len()),
        Err(e) => eprintln!("cannot write trace to {path}: {e}"),
    }
}

/// Writes every retained flight record as JSON-lines to the
/// `--query-log` target (deferred EXPLAIN captures attached first).
fn write_query_log(xk: &XKeyword, args: &Args) {
    let Some(path) = &args.query_log else { return };
    let jsonl = xk.engine().export_query_log();
    match std::fs::write(path, &jsonl) {
        Ok(()) => eprintln!("wrote {} query records to {path}", jsonl.lines().count()),
        Err(e) => eprintln!("cannot write query log to {path}: {e}"),
    }
}

/// Publishes the store's pull-based gauges and dumps the registry,
/// followed by the flight recorder's windowed `xkw_window_*` gauges
/// (those come from the always-on recorder, so they print even when
/// the cumulative registry is disabled).
fn print_metrics(xk: &XKeyword) {
    if xkeyword::obs::enabled() {
        let registry = xkeyword::obs::global();
        xk.export_metrics(registry);
        print!("{}", registry.render_prometheus());
    } else {
        println!("(observability disabled — run with --trace-out to enable collection)");
    }
    print!("{}", xk.engine().recorder().render_window_prometheus());
}

fn print_stats(xk: &XKeyword) {
    let s = xk.engine().stats();
    println!(
        "engine: {} queries, {} errors; plan cache {} hits / {} misses; \
         partial cache {} hits / {} misses; io {} hits / {} misses",
        s.queries,
        s.errors,
        s.plan_cache_hits,
        s.plan_cache_misses,
        s.partial_cache_hits,
        s.partial_cache_misses,
        s.io_hits,
        s.io_misses
    );
    println!(
        "  topk: {} plans pruned, {} early-stopped",
        s.plans_pruned, s.plans_early_stopped
    );
    println!(
        "  stage totals: discover {:?} | plan {:?} | exec {:?} | present {:?}",
        s.discover, s.plan, s.exec, s.present
    );
    let pool = xk.db.pool();
    let shards = pool.shard_stats();
    let evictions: u64 = shards.iter().map(|sh| sh.evictions).sum();
    println!(
        "pool: {} shards, {} / {} pages resident, {} evictions",
        shards.len(),
        shards.iter().map(|sh| sh.resident).sum::<usize>(),
        pool.capacity(),
        evictions
    );
    for (i, sh) in shards.iter().enumerate() {
        println!(
            "  shard {i}: {:>4}/{:<4} resident | {} hits / {} misses / {} evictions",
            sh.resident, sh.capacity, sh.hits, sh.misses, sh.evictions
        );
    }
    let master = xk.master();
    let postings = master.postings_bytes();
    let (graph, nodes) = {
        let g = xk.graph();
        (g.graph_bytes(), g.node_count().max(1))
    };
    println!(
        "index: {} postings format, {} postings bytes, {} graph bytes, {:.1} bytes/node",
        master.format(),
        postings,
        graph,
        (postings + graph) as f64 / nodes as f64
    );
    if let Some(w) = xk.wal_stats() {
        println!(
            "wal: {} appends, {} bytes, {} fsyncs, {} checkpoints; \
             {} live documents, {} recoveries",
            w.appends,
            w.bytes,
            w.fsyncs,
            w.checkpoints,
            xk.documents().len(),
            xk.recoveries()
        );
    }
}

/// The spec of one CLI query: `--k`, `--no-prune`, `--threads` and
/// `--deadline-ms` apply to plain and EXPLAIN runs alike.
fn query_spec<'a>(keywords: &'a [&'a str], args: &Args) -> QuerySpec<'a> {
    QuerySpec {
        keywords,
        z: args.z,
        join: Join::NestedLoop(ExecMode::Cached { capacity: 8192 }),
        k: args.k,
        prune: args.prune,
        threads: args.threads.max(1),
        deadline: args.deadline,
    }
}

/// Runs one query in EXPLAIN ANALYZE mode and prints the per-operator
/// profile of every candidate-network plan. Returns whether it succeeded.
fn run_explain(xk: &XKeyword, query: &str, args: &Args) -> bool {
    let keywords: Vec<&str> = query.split_whitespace().collect();
    match xk.engine().explain(&query_spec(&keywords, args)) {
        Ok(report) => {
            print!("{}", report.render());
            if args.stats {
                print_stats(xk);
            }
            true
        }
        Err(e) => {
            println!("query error: {e}");
            false
        }
    }
}

/// Runs one query, prints the ranked results and per-stage metrics.
/// Returns whether it succeeded.
fn run_query(xk: &XKeyword, query: &str, args: &Args) -> bool {
    let keywords: Vec<&str> = query.split_whitespace().collect();
    let out = xk.engine().query(&query_spec(&keywords, args));
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            println!("query error: {e}");
            if args.stats {
                print_stats(xk);
            }
            return false;
        }
    };
    // Re-planning for ranking hits the plan cache the query just warmed,
    // so this costs one instantiation pass.
    let plans = xk.plans(&keywords, args.z);
    let res = &out.results;
    let idf = IdfWeights::compute(&xk.master(), &xk.targets(), &keywords);
    let ranked = rank(
        res.rows.clone(),
        &plans,
        &xk.tss,
        &idf,
        &RankingConfig::default(),
    );
    let m = &out.metrics;
    println!(
        "{} results ({} candidate networks, {} probes)",
        ranked.len(),
        m.plans,
        res.stats.probes,
    );
    if let Some(k) = args.k {
        let pr = &res.prune;
        println!(
            "  top-{k}: {} plans claimed, {} pruned, {} early-stopped{}",
            pr.plans_claimed,
            pr.plans_pruned,
            pr.plans_early_stopped,
            if pr.enabled {
                ""
            } else {
                " (pruning disabled)"
            }
        );
    }
    let deg = &res.degradation;
    if deg.is_degraded() {
        println!(
            "  DEGRADED: {} plans skipped, {} incomplete, {} faults, {} retries{}",
            deg.plans_skipped,
            deg.plans_incomplete,
            deg.faults.len(),
            deg.retries,
            if deg.deadline_exceeded {
                " (deadline exceeded)"
            } else {
                ""
            }
        );
    }
    println!(
        "  stages: discover {:?} | plan {:?} ({}) | exec {:?} | present {:?}; io {} hits / {} misses",
        m.discover,
        m.plan,
        if m.plan_cache_hit {
            "plan-cache hit"
        } else {
            "cold"
        },
        m.exec,
        m.present,
        m.io_hits,
        m.io_misses
    );
    if args.stats {
        print_stats(xk);
    }
    let mut seen = std::collections::HashSet::new();
    let mut shown = 0;
    for r in &ranked {
        let m = r.row.to_mtton();
        if !seen.insert(m.clone()) {
            continue;
        }
        let labels: Vec<String> = m.tos.iter().map(|&t| xk.label(t)).collect();
        println!(
            "  {:>5.2} size {:>2}: {}",
            r.relevance,
            r.row.score,
            labels.join(" — ")
        );
        shown += 1;
        if shown >= args.top {
            break;
        }
    }
    true
}
