//! The always-on flight recorder: a bounded, lock-striped ring of
//! per-query records, a slow-query log with auto-captured EXPLAIN
//! profiles, and windowed serving metrics.
//!
//! Every query the engine finishes — success, degraded, or error —
//! appends one [`QueryRecord`]: keywords, k, postings format, per-stage
//! timings, attributed I/O, pruning counters, a [`DegradationSummary`],
//! and an FNV-1a digest of the result rows. Records live in
//! [`RECORD_STRIPES`] mutex-striped rings of fixed total capacity;
//! once a stripe fills, new records overwrite its oldest, so leaving
//! the recorder on forever costs fixed memory. Unlike the span/metric
//! layer (off by default, [`crate::enabled`]), the recorder defaults
//! **on**: the `recorder_overhead` bench in `xkw-bench` CI-gates its
//! always-on cost under 5% of a fig15a batch.
//!
//! Two mechanisms decide which queries keep expensive evidence:
//!
//! * **Head sampling** — `splitmix64(seed ^ id) % sample_every == 0`
//!   picks a deterministic 1-in-N of query ids at admission. Sampled
//!   queries also keep their full span tree (drained from the trace
//!   collector into the record), bounding trace memory without a
//!   grow-forever `take_spans` on the hot path.
//! * **Forced capture** — queries that exceed the slow threshold,
//!   finish degraded (deadline, skipped/incomplete plans, faults),
//!   observe corruption, or error are always captured, and are flagged
//!   for an EXPLAIN ANALYZE profile. The engine attaches that profile
//!   *lazily* (at slow-log read/export time, never on the serving
//!   path) via [`FlightRecorder::pending_explains`] /
//!   [`FlightRecorder::attach_explain`]; the attached
//!   [`ExplainCapture`] preserves the per-operator I/O decomposition
//!   invariant against its own recorded totals.
//!
//! The recorder also owns the windowed instruments (qps, latency
//! quantiles, pool hit rate, degradation rate over the last N
//! windows, see [`crate::window`]), rotated by wall clock on record
//! push, rendered by [`FlightRecorder::dashboard`] (the CLI `:top`
//! view) and [`FlightRecorder::render_window_prometheus`].

use crate::profile::PlanProfile;
use crate::push_json_str;
use crate::trace::{fmt_ns, SpanRecord};
use crate::window::{WindowedCounter, WindowedHistogram, DEFAULT_WINDOWS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stripe count of the record ring; query ids map onto stripes.
pub const RECORD_STRIPES: usize = 8;

/// Default total record capacity across all stripes.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default head-sampling rate: 1 in 64 queries keeps its span tree.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Default sampling seed. Pinned so that query ids 1..=64 are *not*
/// head-sampled (unit-tested below): fresh-engine smoke tests and the
/// chrome-trace pin in `tests/observability.rs` observe an untouched
/// span collector unless a query is forced.
pub const DEFAULT_SAMPLE_SEED: u64 = 0xB0B0_0000;

/// Default slow-query threshold: 50 ms.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 50_000_000;

/// Default window width for the sliding metrics: 1 s.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;

/// SplitMix64 finalizer — the deterministic hash behind head sampling.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The join algorithm as recorded — mirrors `xkw_core::exec::Join`,
/// redefined here because the dependency points the other way (core
/// uses obs). The engine converts both directions so a deferred EXPLAIN
/// capture re-runs the algorithm that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordedMode {
    /// Nested loops with no partial-result cache.
    Naive,
    /// Partial-result cache of the given capacity.
    Cached {
        /// Cache capacity in entries.
        capacity: usize,
    },
    /// Full scans + hash joins.
    Hash,
}

impl RecordedMode {
    /// Short label for tables and JSON (`naive` / `cached:8192` / `hash`).
    pub fn label(&self) -> String {
        match self {
            RecordedMode::Naive => "naive".to_owned(),
            RecordedMode::Cached { capacity } => format!("cached:{capacity}"),
            RecordedMode::Hash => "hash".to_owned(),
        }
    }
}

/// Flattened degradation evidence carried by a record (the engine fills
/// it from `exec::Degradation`; faults become rendered strings so obs
/// needs no store types).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationSummary {
    /// The query deadline latched before execution finished.
    pub deadline_exceeded: bool,
    /// Plans never started because the deadline had already passed.
    pub plans_skipped: usize,
    /// Plans aborted mid-evaluation (deadline or fault).
    pub plans_incomplete: usize,
    /// Rendered store faults, `"plan 3: checksum mismatch ..."`.
    pub faults: Vec<String>,
    /// Transient-fault retries the store burned during the query.
    pub retries: u64,
    /// Whether any fault was a corruption (checksum/torn-write class).
    pub corrupt: bool,
}

impl DegradationSummary {
    /// Whether anything at all degraded.
    pub fn is_degraded(&self) -> bool {
        self.deadline_exceeded
            || self.plans_skipped > 0
            || self.plans_incomplete > 0
            || !self.faults.is_empty()
    }
}

/// An EXPLAIN ANALYZE capture attached to a record. `io_hits`/
/// `io_misses` are the capture run's own attributed totals; summing
/// per-operator I/O over `profiles` reproduces them exactly (the same
/// decomposition invariant `tests/observability.rs` pins for live
/// EXPLAIN).
#[derive(Debug, Clone, Default)]
pub struct ExplainCapture {
    /// Buffer-pool hits attributed to the capture run.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to the capture run.
    pub io_misses: u64,
    /// Per-plan operator trees.
    pub profiles: Vec<PlanProfile>,
}

impl ExplainCapture {
    /// Per-operator I/O summed over every plan tree.
    pub fn io_total(&self) -> u64 {
        self.profiles.iter().map(PlanProfile::io_total).sum()
    }
}

/// One query's flight-recorder entry.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Recorder-assigned id, monotonically increasing from 1.
    pub id: u64,
    /// The query keywords, in request order.
    pub keywords: Vec<String>,
    /// Proximity bound z.
    pub z: usize,
    /// Top-k limit, `None` for exhaustive queries.
    pub k: Option<usize>,
    /// Which engine entry point ran: `all`, `topk`, `hash`, `explain`.
    pub path: &'static str,
    /// Join algorithm, kept for deferred EXPLAIN re-runs.
    pub mode: RecordedMode,
    /// Postings format backing the master index (`raw` / `packed`).
    pub postings: &'static str,
    /// Query deadline, if one was set.
    pub deadline_ns: Option<u64>,
    /// Whether top-k pruning was enabled.
    pub prune: bool,
    /// Whether prepare hit the plan cache.
    pub plan_cache_hit: bool,
    /// Keyword-discovery stage wall time.
    pub discover_ns: u64,
    /// Planning stage wall time.
    pub plan_ns: u64,
    /// Execution stage wall time.
    pub exec_ns: u64,
    /// Presentation (MTTONS) stage wall time.
    pub present_ns: u64,
    /// End-to-end wall time.
    pub total_ns: u64,
    /// Candidate plans considered.
    pub plans: usize,
    /// Plans pruned by the top-k threshold before starting.
    pub plans_pruned: usize,
    /// Plans aborted mid-evaluation by the top-k threshold.
    pub plans_early_stopped: usize,
    /// Result rows returned.
    pub rows: usize,
    /// FNV-1a digest over the result rows (plan, assignment, score) —
    /// lets two runs be compared for identity without storing rows.
    pub result_digest: u64,
    /// Buffer-pool hits attributed to this query.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to this query.
    pub io_misses: u64,
    /// Degradation evidence, `None` when the query ran clean.
    pub degradation: Option<DegradationSummary>,
    /// Rendered error for queries that failed outright.
    pub error: Option<String>,
    /// Exceeded the slow threshold.
    pub slow: bool,
    /// Force-captured (slow, degraded, corrupt, or errored).
    pub forced: bool,
    /// Kept its span tree (head-sampled or forced while tracing).
    pub sampled: bool,
    /// The span tree, populated only when `sampled` and tracing was on.
    pub spans: Vec<SpanRecord>,
    /// Attached EXPLAIN capture (immediately for `explain` queries,
    /// lazily for forced ones).
    pub explain: Option<ExplainCapture>,
    /// Error from a failed deferred capture attempt.
    pub explain_error: Option<String>,
    /// Awaiting a deferred EXPLAIN capture.
    pub needs_explain: bool,
}

impl QueryRecord {
    /// Compact status flags for tables: `S` slow, `D` degraded,
    /// `C` corrupt, `E` error, `.` padding.
    pub fn flags(&self) -> String {
        let degraded = self.degradation.as_ref().is_some_and(|d| d.is_degraded());
        let corrupt = self.degradation.as_ref().is_some_and(|d| d.corrupt);
        [
            if self.slow { 'S' } else { '.' },
            if degraded { 'D' } else { '.' },
            if corrupt { 'C' } else { '.' },
            if self.error.is_some() { 'E' } else { '.' },
        ]
        .iter()
        .collect()
    }

    /// One JSON object (no trailing newline) for JSON-lines export.
    /// Serde-free, shaped for log pipelines: scalar fields, a `stages`
    /// object, optional `degraded` / `explain` objects, and span
    /// *count* rather than the full tree (spans export via the chrome
    /// trace path).
    pub fn to_json_line(&self) -> String {
        let mut o = String::with_capacity(512);
        o.push_str(&format!("{{\"id\":{}", self.id));
        o.push_str(",\"keywords\":[");
        for (i, k) in self.keywords.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_json_str(&mut o, k);
        }
        o.push(']');
        o.push_str(&format!(",\"z\":{}", self.z));
        match self.k {
            Some(k) => o.push_str(&format!(",\"k\":{k}")),
            None => o.push_str(",\"k\":null"),
        }
        o.push_str(",\"path\":");
        push_json_str(&mut o, self.path);
        o.push_str(",\"mode\":");
        push_json_str(&mut o, &self.mode.label());
        o.push_str(",\"postings\":");
        push_json_str(&mut o, self.postings);
        match self.deadline_ns {
            Some(d) => o.push_str(&format!(",\"deadline_ns\":{d}")),
            None => o.push_str(",\"deadline_ns\":null"),
        }
        o.push_str(&format!(
            ",\"prune\":{},\"plan_cache_hit\":{}",
            self.prune, self.plan_cache_hit
        ));
        o.push_str(&format!(
            ",\"total_ns\":{},\"stages\":{{\"discover_ns\":{},\"plan_ns\":{},\"exec_ns\":{},\"present_ns\":{}}}",
            self.total_ns, self.discover_ns, self.plan_ns, self.exec_ns, self.present_ns
        ));
        o.push_str(&format!(
            ",\"plans\":{},\"plans_pruned\":{},\"plans_early_stopped\":{}",
            self.plans, self.plans_pruned, self.plans_early_stopped
        ));
        o.push_str(&format!(
            ",\"rows\":{},\"digest\":\"{:016x}\"",
            self.rows, self.result_digest
        ));
        o.push_str(&format!(
            ",\"io_hits\":{},\"io_misses\":{}",
            self.io_hits, self.io_misses
        ));
        o.push_str(&format!(
            ",\"slow\":{},\"forced\":{},\"sampled\":{},\"spans\":{}",
            self.slow,
            self.forced,
            self.sampled,
            self.spans.len()
        ));
        match &self.error {
            Some(e) => {
                o.push_str(",\"error\":");
                push_json_str(&mut o, e);
            }
            None => o.push_str(",\"error\":null"),
        }
        match &self.degradation {
            Some(d) if d.is_degraded() || d.corrupt || d.retries > 0 => {
                o.push_str(&format!(
                    ",\"degraded\":{{\"deadline_exceeded\":{},\"plans_skipped\":{},\"plans_incomplete\":{},\"retries\":{},\"corrupt\":{},\"faults\":[",
                    d.deadline_exceeded, d.plans_skipped, d.plans_incomplete, d.retries, d.corrupt
                ));
                for (i, f) in d.faults.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_json_str(&mut o, f);
                }
                o.push_str("]}");
            }
            _ => o.push_str(",\"degraded\":null"),
        }
        match &self.explain {
            Some(x) => {
                o.push_str(&format!(
                    ",\"explain\":{{\"io_hits\":{},\"io_misses\":{},\"profiles\":[",
                    x.io_hits, x.io_misses
                ));
                for (i, p) in x.profiles.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    let (h, m) = p.root.io_breakdown();
                    o.push_str(&format!("{{\"plan\":{},\"name\":", p.plan));
                    push_json_str(&mut o, &p.name);
                    o.push_str(&format!(
                        ",\"score\":{},\"rows\":{},\"io_hits\":{h},\"io_misses\":{m},\"pruned\":{},\"skipped\":{}}}",
                        p.score, p.rows_out, p.pruned, p.skipped
                    ));
                }
                o.push_str("]}");
            }
            None => o.push_str(",\"explain\":null"),
        }
        if let Some(e) = &self.explain_error {
            o.push_str(",\"explain_error\":");
            push_json_str(&mut o, e);
        }
        o.push('}');
        o
    }
}

/// What a deferred EXPLAIN capture needs to re-run a recorded query.
#[derive(Debug, Clone)]
pub struct PendingExplain {
    /// Record id to attach the capture to.
    pub id: u64,
    /// The query keywords.
    pub keywords: Vec<String>,
    /// Proximity bound z.
    pub z: usize,
    /// Top-k limit, `None` for exhaustive.
    pub k: Option<usize>,
    /// Join algorithm to re-run under.
    pub mode: RecordedMode,
    /// Whether top-k pruning was enabled.
    pub prune: bool,
    /// Original deadline — the capture honors it so a query that
    /// degraded under a deadline cannot stall the capture either.
    pub deadline_ns: Option<u64>,
}

/// Tunables for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Total records retained across stripes.
    pub capacity: usize,
    /// Head-sample 1 in this many queries (0 disables head sampling).
    pub sample_every: u64,
    /// Seed for the sampling hash.
    pub sample_seed: u64,
    /// Slow-query threshold in nanoseconds.
    pub slow_threshold_ns: u64,
    /// Window width for the sliding metrics, nanoseconds.
    pub window_ns: u64,
    /// Number of windows retained.
    pub windows: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: DEFAULT_CAPACITY,
            sample_every: DEFAULT_SAMPLE_EVERY,
            sample_seed: DEFAULT_SAMPLE_SEED,
            slow_threshold_ns: DEFAULT_SLOW_THRESHOLD_NS,
            window_ns: DEFAULT_WINDOW_NS,
            windows: DEFAULT_WINDOWS,
        }
    }
}

struct RecordStripe {
    records: Vec<QueryRecord>,
    cursor: usize,
}

struct WindowClock {
    epoch: Option<Instant>,
    ticked: u64,
}

/// The flight recorder. One per engine; see the module docs for the
/// sampling/forcing/window design.
pub struct FlightRecorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    capacity: usize,
    sample_seed: u64,
    sample_every: AtomicU64,
    slow_threshold_ns: AtomicU64,
    appended: AtomicU64,
    stripes: [Mutex<RecordStripe>; RECORD_STRIPES],
    window_ns: u64,
    windows: usize,
    clock: Mutex<WindowClock>,
    w_queries: WindowedCounter,
    w_slow: WindowedCounter,
    w_degraded: WindowedCounter,
    w_errors: WindowedCounter,
    w_io_hits: WindowedCounter,
    w_io_misses: WindowedCounter,
    w_latency: WindowedHistogram,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(RecorderConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given tunables, enabled from the start.
    pub fn new(config: RecorderConfig) -> Self {
        let windows = config.windows.max(1);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            capacity: config.capacity.max(RECORD_STRIPES),
            sample_seed: config.sample_seed,
            sample_every: AtomicU64::new(config.sample_every),
            slow_threshold_ns: AtomicU64::new(config.slow_threshold_ns.max(1)),
            appended: AtomicU64::new(0),
            stripes: [const {
                Mutex::new(RecordStripe {
                    records: Vec::new(),
                    cursor: 0,
                })
            }; RECORD_STRIPES],
            window_ns: config.window_ns.max(1),
            windows,
            clock: Mutex::new(WindowClock {
                epoch: None,
                ticked: 0,
            }),
            w_queries: WindowedCounter::new(windows),
            w_slow: WindowedCounter::new(windows),
            w_degraded: WindowedCounter::new(windows),
            w_errors: WindowedCounter::new(windows),
            w_io_hits: WindowedCounter::new(windows),
            w_io_misses: WindowedCounter::new(windows),
            w_latency: WindowedHistogram::new(windows),
        }
    }

    /// Whether recording is on (the default). The off switch exists for
    /// A/B runs — the `recorder_overhead` bench and the byte-identity
    /// proptests — not for production use.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Current slow-query threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the slow-query threshold (clamped to ≥ 1 ns).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns.max(1), Ordering::Relaxed);
    }

    /// Sets the head-sampling rate (1 in `every`; 0 disables).
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Total records retained at capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records appended over the recorder's lifetime (≥ `len`).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("record stripe poisoned").records.len())
            .sum()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates the next query id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Deterministic head-sampling decision for `id`.
    pub fn should_sample(&self, id: u64) -> bool {
        let every = self.sample_every.load(Ordering::Relaxed);
        every != 0 && splitmix64(self.sample_seed ^ id).is_multiple_of(every)
    }

    /// Appends a record (ring-overwriting the stripe's oldest at
    /// capacity) and feeds the windowed instruments. No-op while
    /// disabled.
    pub fn push(&self, record: QueryRecord) {
        if !self.enabled() {
            return;
        }
        self.maybe_tick();
        self.w_queries.inc();
        self.w_latency.observe(record.total_ns);
        self.w_io_hits.add(record.io_hits);
        self.w_io_misses.add(record.io_misses);
        if record.slow {
            self.w_slow.inc();
        }
        if record.degradation.as_ref().is_some_and(|d| d.is_degraded()) {
            self.w_degraded.inc();
        }
        if record.error.is_some() {
            self.w_errors.inc();
        }
        let per_stripe = (self.capacity / RECORD_STRIPES).max(1);
        let mut stripe = self.stripes[(record.id as usize) % RECORD_STRIPES]
            .lock()
            .expect("record stripe poisoned");
        if stripe.records.len() < per_stripe {
            stripe.records.push(record);
        } else {
            let at = stripe.cursor % per_stripe;
            stripe.records[at] = record;
            stripe.cursor = stripe.cursor.wrapping_add(1);
        }
        drop(stripe);
        self.appended.fetch_add(1, Ordering::Relaxed);
    }

    /// Every retained record, ordered by query id.
    pub fn records(&self) -> Vec<QueryRecord> {
        let mut all: Vec<QueryRecord> = Vec::new();
        for stripe in &self.stripes {
            all.extend(
                stripe
                    .lock()
                    .expect("record stripe poisoned")
                    .records
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|r| r.id);
        all
    }

    /// The last `n` force-captured records (slow/degraded/corrupt/
    /// errored), oldest first.
    pub fn slow_records(&self, n: usize) -> Vec<QueryRecord> {
        let mut forced: Vec<QueryRecord> =
            self.records().into_iter().filter(|r| r.forced).collect();
        if forced.len() > n {
            forced.drain(..forced.len() - n);
        }
        forced
    }

    /// Records still awaiting a deferred EXPLAIN capture.
    pub fn pending_explains(&self) -> Vec<PendingExplain> {
        let mut out: Vec<PendingExplain> = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("record stripe poisoned");
            for r in &stripe.records {
                if r.needs_explain && r.explain.is_none() {
                    out.push(PendingExplain {
                        id: r.id,
                        keywords: r.keywords.clone(),
                        z: r.z,
                        k: r.k,
                        mode: r.mode,
                        prune: r.prune,
                        deadline_ns: r.deadline_ns,
                    });
                }
            }
        }
        out.sort_by_key(|p| p.id);
        out
    }

    /// Attaches an EXPLAIN capture to record `id`. Returns `false` if
    /// the record was already overwritten.
    pub fn attach_explain(&self, id: u64, capture: ExplainCapture) -> bool {
        self.with_record(id, |r| {
            r.explain = Some(capture);
            r.needs_explain = false;
        })
    }

    /// Marks record `id`'s deferred capture as failed (it will not be
    /// retried). Returns `false` if the record was already overwritten.
    pub fn explain_failed(&self, id: u64, error: String) -> bool {
        self.with_record(id, |r| {
            r.explain_error = Some(error);
            r.needs_explain = false;
        })
    }

    fn with_record(&self, id: u64, f: impl FnOnce(&mut QueryRecord)) -> bool {
        let mut stripe = self.stripes[(id as usize) % RECORD_STRIPES]
            .lock()
            .expect("record stripe poisoned");
        match stripe.records.iter_mut().find(|r| r.id == id) {
            Some(r) => {
                f(r);
                true
            }
            None => false,
        }
    }

    /// Every retained record as JSON-lines (one object per line).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Renders the last `n` slow-log entries as an aligned text table.
    pub fn render_slow_table(&self, n: usize) -> String {
        let records = self.slow_records(n);
        if records.is_empty() {
            return "slow log: empty\n".to_owned();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6}  {:<28} {:>4}  {:>10}  {:>5}  {:>9}  {:^5}  {}\n",
            "id", "keywords", "k", "total", "rows", "io", "flags", "detail"
        ));
        for r in &records {
            let mut kw = r.keywords.join(" ");
            if kw.len() > 28 {
                kw.truncate(27);
                kw.push('…');
            }
            let detail = if let Some(e) = &r.error {
                format!("error: {e}")
            } else if let Some(d) = r.degradation.as_ref().filter(|d| d.is_degraded()) {
                format!(
                    "degraded: skipped={} incomplete={} faults={} retries={}",
                    d.plans_skipped,
                    d.plans_incomplete,
                    d.faults.len(),
                    d.retries
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:>6}  {:<28} {:>4}  {:>10}  {:>5}  {:>9}  {:^5}  {}\n",
                r.id,
                kw,
                r.k.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
                fmt_ns(r.total_ns),
                r.rows,
                format!("{}h+{}m", r.io_hits, r.io_misses),
                r.flags(),
                detail,
            ));
            if let Some(x) = &r.explain {
                for p in &x.profiles {
                    for line in p.render().lines() {
                        out.push_str(&format!("        | {line}\n"));
                    }
                }
            }
        }
        out
    }

    /// Manually rotates every windowed instrument by one window.
    pub fn tick(&self) {
        for c in [
            &self.w_queries,
            &self.w_slow,
            &self.w_degraded,
            &self.w_errors,
            &self.w_io_hits,
            &self.w_io_misses,
        ] {
            c.tick();
        }
        self.w_latency.tick();
    }

    /// Rotates windows to match wall time: if more than `window_ns` has
    /// passed since the last rotation, ticks once per elapsed window
    /// (capped at a full ring, which is equivalent to clearing it).
    /// One `Instant::now` per call; the engine calls this once per
    /// query push.
    pub fn maybe_tick(&self) {
        let mut clock = self.clock.lock().expect("window clock poisoned");
        let epoch = *clock.epoch.get_or_insert_with(Instant::now);
        let due = epoch.elapsed().as_nanos() as u64 / self.window_ns;
        let behind = due.saturating_sub(clock.ticked);
        if behind == 0 {
            return;
        }
        for _ in 0..behind.min(self.windows as u64) {
            self.tick();
        }
        clock.ticked = due;
    }

    /// Point-in-time windowed stats for dashboards and exporters.
    pub fn window_stats(&self) -> WindowStats {
        let n = self.windows;
        let queries = self.w_queries.total_last(n);
        let hits = self.w_io_hits.total_last(n);
        let misses = self.w_io_misses.total_last(n);
        WindowStats {
            windows: n,
            window_ns: self.window_ns,
            queries,
            slow: self.w_slow.total_last(n),
            degraded: self.w_degraded.total_last(n),
            errors: self.w_errors.total_last(n),
            io_hits: hits,
            io_misses: misses,
            latency: self.w_latency.summary_last(n),
            qps_per_window: self.w_queries.per_window(n),
        }
    }

    /// The `:top` live dashboard: qps, latency quantiles, pool hit
    /// rate, degradation rate over the retained windows.
    pub fn dashboard(&self) -> String {
        let s = self.window_stats();
        let span_s = (s.windows as f64 * s.window_ns as f64) / 1e9;
        let qps = s.queries as f64 / span_s.max(1e-9);
        let hit_rate = if s.io_hits + s.io_misses > 0 {
            100.0 * s.io_hits as f64 / (s.io_hits + s.io_misses) as f64
        } else {
            0.0
        };
        let pct = |num: u64| {
            if s.queries > 0 {
                100.0 * num as f64 / s.queries as f64
            } else {
                0.0
            }
        };
        let mut out = String::new();
        out.push_str(&format!(
            "last {} windows × {} ({} queries)\n",
            s.windows,
            fmt_ns(s.window_ns),
            s.queries
        ));
        out.push_str(&format!("  qps        {qps:.1}\n"));
        out.push_str(&format!(
            "  latency    p50={} p95={} p99={} max={}\n",
            fmt_ns(s.latency.p50),
            fmt_ns(s.latency.p95),
            fmt_ns(s.latency.p99),
            fmt_ns(s.latency.max)
        ));
        out.push_str(&format!(
            "  pool       {hit_rate:.1}% hit ({}h+{}m)\n",
            s.io_hits, s.io_misses
        ));
        out.push_str(&format!(
            "  degraded   {:.1}% ({})   slow {:.1}% ({})   errors {:.1}% ({})\n",
            pct(s.degraded),
            s.degraded,
            pct(s.slow),
            s.slow,
            pct(s.errors),
            s.errors
        ));
        out.push_str("  queries/window ");
        for q in &s.qps_per_window {
            out.push_str(&format!("{q} "));
        }
        out.push('\n');
        out
    }

    /// Prometheus text for the windowed instruments (`xkw_window_*`
    /// gauges — point-in-time views over the last N windows, distinct
    /// from the cumulative registry families).
    pub fn render_window_prometheus(&self) -> String {
        let s = self.window_stats();
        let span_s = (s.windows as f64 * s.window_ns as f64) / 1e9;
        let qps = s.queries as f64 / span_s.max(1e-9);
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, value: String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        };
        gauge(
            &mut out,
            "xkw_window_queries",
            "queries over the retained windows",
            s.queries.to_string(),
        );
        gauge(
            &mut out,
            "xkw_window_qps",
            "mean query rate over the retained windows",
            format!("{qps:.3}"),
        );
        for (q, v) in [
            ("p50", s.latency.p50),
            ("p95", s.latency.p95),
            ("p99", s.latency.p99),
        ] {
            out.push_str(&format!(
                "# HELP xkw_window_latency_ns_{q} {q} query latency over the retained windows\n# TYPE xkw_window_latency_ns_{q} gauge\nxkw_window_latency_ns_{q} {v}\n"
            ));
        }
        let hit_ratio = if s.io_hits + s.io_misses > 0 {
            s.io_hits as f64 / (s.io_hits + s.io_misses) as f64
        } else {
            0.0
        };
        gauge(
            &mut out,
            "xkw_window_pool_hit_ratio",
            "buffer-pool hit ratio over the retained windows",
            format!("{hit_ratio:.4}"),
        );
        gauge(
            &mut out,
            "xkw_window_degraded",
            "degraded queries over the retained windows",
            s.degraded.to_string(),
        );
        gauge(
            &mut out,
            "xkw_window_slow",
            "slow queries over the retained windows",
            s.slow.to_string(),
        );
        gauge(
            &mut out,
            "xkw_window_errors",
            "failed queries over the retained windows",
            s.errors.to_string(),
        );
        out
    }

    /// Drops every record (windows and the id counter keep running).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock().expect("record stripe poisoned");
            stripe.records.clear();
            stripe.cursor = 0;
        }
    }
}

/// A point-in-time digest of the windowed instruments.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Windows merged.
    pub windows: usize,
    /// Window width, nanoseconds.
    pub window_ns: u64,
    /// Queries over the merged windows.
    pub queries: u64,
    /// Slow queries over the merged windows.
    pub slow: u64,
    /// Degraded queries over the merged windows.
    pub degraded: u64,
    /// Failed queries over the merged windows.
    pub errors: u64,
    /// Buffer-pool hits over the merged windows.
    pub io_hits: u64,
    /// Buffer-pool misses over the merged windows.
    pub io_misses: u64,
    /// Latency digest over the merged windows.
    pub latency: crate::metrics::HistogramSummary,
    /// Per-window query counts, newest first.
    pub qps_per_window: Vec<u64>,
}

/// A rare-event log the store feeds: quarantines, checksum failures,
/// fault installs. Process-global (the store has no engine handle),
/// bounded, always on.
pub struct EventLog {
    entries: Mutex<std::collections::VecDeque<StoreEvent>>,
    capacity: usize,
    appended: AtomicU64,
}

/// One store-side event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEvent {
    /// Event class (`quarantine`, `checksum_failure`, ...).
    pub kind: &'static str,
    /// Rendered detail.
    pub detail: String,
}

impl EventLog {
    fn new(capacity: usize) -> Self {
        EventLog {
            entries: Mutex::new(std::collections::VecDeque::new()),
            capacity,
            appended: AtomicU64::new(0),
        }
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn push(&self, kind: &'static str, detail: String) {
        let mut entries = self.entries.lock().expect("event log poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(StoreEvent { kind, detail });
        self.appended.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<StoreEvent> {
        let entries = self.entries.lock().expect("event log poisoned");
        entries.iter().rev().take(n).rev().cloned().collect()
    }

    /// Events appended over the process lifetime.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

/// The process-global store-event log.
pub fn events() -> &'static EventLog {
    static EVENTS: std::sync::OnceLock<EventLog> = std::sync::OnceLock::new();
    EVENTS.get_or_init(|| EventLog::new(256))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> QueryRecord {
        QueryRecord {
            id,
            keywords: vec!["john".into(), "vcr".into()],
            z: 8,
            k: None,
            path: "all",
            mode: RecordedMode::Cached { capacity: 8192 },
            postings: "raw",
            deadline_ns: None,
            prune: false,
            plan_cache_hit: true,
            discover_ns: 100,
            plan_ns: 200,
            exec_ns: 300,
            present_ns: 50,
            total_ns: 650,
            plans: 3,
            plans_pruned: 0,
            plans_early_stopped: 0,
            rows: 2,
            result_digest: 0xDEAD_BEEF,
            io_hits: 5,
            io_misses: 1,
            degradation: None,
            error: None,
            slow: false,
            forced: false,
            sampled: false,
            spans: Vec::new(),
            explain: None,
            explain_error: None,
            needs_explain: false,
        }
    }

    #[test]
    fn default_seed_never_samples_the_first_64_ids() {
        let r = FlightRecorder::default();
        for id in 1..=64 {
            assert!(
                !r.should_sample(id),
                "id {id} must not be head-sampled under the pinned default seed"
            );
        }
        // Sampling is not vacuous: some id in the first few thousand fires.
        assert!(
            (1..=4096).any(|id| r.should_sample(id)),
            "head sampling must fire eventually"
        );
    }

    #[test]
    fn sampling_is_deterministic_and_rate_controlled() {
        let r = FlightRecorder::default();
        let picks: Vec<bool> = (1..=10_000).map(|id| r.should_sample(id)).collect();
        assert_eq!(
            picks,
            (1..=10_000)
                .map(|id| r.should_sample(id))
                .collect::<Vec<_>>()
        );
        let hits = picks.iter().filter(|&&p| p).count();
        // 1-in-64 over 10k ids: expect ~156, allow a wide band.
        assert!((60..=350).contains(&hits), "got {hits} samples");
        r.set_sample_every(0);
        assert!(!r.should_sample(79), "every=0 disables sampling");
        r.set_sample_every(1);
        assert!(
            (1..=64).all(|id| r.should_sample(id)),
            "every=1 samples all"
        );
    }

    #[test]
    fn ring_capacity_is_never_exceeded() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 32,
            ..RecorderConfig::default()
        });
        for id in 1..=500 {
            r.push(record(id));
            assert!(
                r.len() <= r.capacity(),
                "len {} > cap {}",
                r.len(),
                r.capacity()
            );
        }
        assert_eq!(r.appended(), 500);
        assert_eq!(r.len(), 32);
        // Survivors are the newest per stripe, still sorted by id.
        let ids: Vec<u64> = r.records().iter().map(|x| x.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(
            ids.iter().all(|&id| id > 500 - 64),
            "old ids evicted: {ids:?}"
        );
    }

    #[test]
    fn disabled_recorder_drops_pushes() {
        let r = FlightRecorder::default();
        r.set_enabled(false);
        r.push(record(1));
        assert!(r.is_empty());
        assert_eq!(r.appended(), 0);
        r.set_enabled(true);
        r.push(record(2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn slow_records_filters_forced_and_caps() {
        let r = FlightRecorder::default();
        for id in 1..=10 {
            let mut rec = record(id);
            rec.forced = id % 2 == 0;
            rec.slow = rec.forced;
            r.push(rec);
        }
        let slow = r.slow_records(3);
        assert_eq!(
            slow.iter().map(|x| x.id).collect::<Vec<_>>(),
            vec![6, 8, 10]
        );
    }

    #[test]
    fn pending_explains_round_trip() {
        let r = FlightRecorder::default();
        let mut rec = record(7);
        rec.forced = true;
        rec.needs_explain = true;
        rec.deadline_ns = Some(250_000_000);
        r.push(rec);
        let pending = r.pending_explains();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 7);
        assert_eq!(pending[0].deadline_ns, Some(250_000_000));
        assert!(r.attach_explain(
            7,
            ExplainCapture {
                io_hits: 3,
                io_misses: 1,
                profiles: Vec::new(),
            }
        ));
        assert!(r.pending_explains().is_empty());
        let rec = &r.records()[0];
        assert!(!rec.needs_explain);
        assert_eq!(rec.explain.as_ref().unwrap().io_hits, 3);
        // Attaching to an evicted/unknown id reports failure.
        assert!(!r.attach_explain(999, ExplainCapture::default()));
    }

    #[test]
    fn explain_failure_clears_pending() {
        let r = FlightRecorder::default();
        let mut rec = record(3);
        rec.needs_explain = true;
        r.push(rec);
        assert!(r.explain_failed(3, "deadline".into()));
        assert!(r.pending_explains().is_empty());
        assert_eq!(r.records()[0].explain_error.as_deref(), Some("deadline"));
    }

    #[test]
    fn jsonl_export_shape() {
        let r = FlightRecorder::default();
        let mut rec = record(1);
        rec.degradation = Some(DegradationSummary {
            deadline_exceeded: true,
            plans_skipped: 2,
            plans_incomplete: 1,
            faults: vec!["plan 0: page 7 \"torn\"".into()],
            retries: 4,
            corrupt: false,
        });
        rec.slow = true;
        rec.forced = true;
        r.push(rec);
        let jsonl = r.export_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":1,"), "{line}");
        assert!(line.contains("\"keywords\":[\"john\",\"vcr\"]"), "{line}");
        assert!(line.contains("\"mode\":\"cached:8192\""), "{line}");
        assert!(line.contains("\"deadline_exceeded\":true"), "{line}");
        assert!(line.contains("\"plans_skipped\":2"), "{line}");
        assert!(line.contains("\"retries\":4"), "{line}");
        assert!(
            line.contains("\\\"torn\\\""),
            "fault strings JSON-escape: {line}"
        );
        assert!(line.contains("\"digest\":\"00000000deadbeef\""), "{line}");
        // Structural sanity: one line per record, balanced braces.
        assert_eq!(jsonl.lines().count(), 1);
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn windows_feed_dashboard_and_prometheus() {
        let r = FlightRecorder::default();
        let mut slow = record(1);
        slow.slow = true;
        slow.forced = true;
        slow.total_ns = 80_000_000;
        r.push(slow);
        r.push(record(2));
        let s = r.window_stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.slow, 1);
        assert_eq!(s.io_hits, 10);
        assert_eq!(s.latency.count, 2);
        let dash = r.dashboard();
        assert!(dash.contains("qps"), "{dash}");
        assert!(dash.contains("p99="), "{dash}");
        assert!(dash.contains("pool"), "{dash}");
        let prom = r.render_window_prometheus();
        assert!(prom.contains("# TYPE xkw_window_qps gauge"), "{prom}");
        assert!(prom.contains("xkw_window_queries 2"), "{prom}");
        assert!(prom.contains("xkw_window_slow 1"), "{prom}");
        assert!(prom.contains("xkw_window_latency_ns_p99"), "{prom}");
        // A full rotation forgets everything.
        for _ in 0..DEFAULT_WINDOWS {
            r.tick();
        }
        assert_eq!(r.window_stats().queries, 0);
    }

    #[test]
    fn slow_table_renders_rows_and_attached_profiles() {
        let r = FlightRecorder::default();
        assert_eq!(r.render_slow_table(5), "slow log: empty\n");
        let mut rec = record(42);
        rec.slow = true;
        rec.forced = true;
        rec.k = Some(3);
        rec.explain = Some(ExplainCapture {
            io_hits: 2,
            io_misses: 0,
            profiles: vec![PlanProfile {
                plan: 0,
                name: "AUTHOR{k0}-PA-PAPER{k1}".into(),
                score: 3,
                ..PlanProfile::default()
            }],
        });
        r.push(rec);
        let table = r.render_slow_table(5);
        assert!(table.contains("42"), "{table}");
        assert!(table.contains("john vcr"), "{table}");
        assert!(table.contains("S..."), "{table}");
        assert!(table.contains("plan 0: AUTHOR{k0}-PA-PAPER{k1}"), "{table}");
    }

    #[test]
    fn event_log_is_bounded() {
        let log = EventLog::new(4);
        for i in 0..10 {
            log.push("quarantine", format!("page {i}"));
        }
        assert_eq!(log.appended(), 10);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].detail, "page 6");
        assert_eq!(recent[3].detail, "page 9");
        assert_eq!(log.recent(2).len(), 2);
    }

    #[test]
    fn flags_string() {
        let mut rec = record(1);
        assert_eq!(rec.flags(), "....");
        rec.slow = true;
        rec.error = Some("boom".into());
        rec.degradation = Some(DegradationSummary {
            deadline_exceeded: true,
            corrupt: true,
            ..DegradationSummary::default()
        });
        assert_eq!(rec.flags(), "SDCE");
    }
}
