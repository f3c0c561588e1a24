//! The execution module (§6).
//!
//! One operation: evaluate candidate-network plans in score order,
//! smallest first, optionally under a global top-K cutoff. An
//! [`ExecRequest`] names the plans and the six orthogonal choices —
//! join algorithm, `k`, pruning, worker threads, deadline, and (by
//! calling [`execute_profiled`] instead of [`execute`]) per-probe
//! measurement — and one driver with one plan-claim loop evaluates every
//! combination:
//!
//! * [`Join::NestedLoop`] — nested-loop evaluation of a CTSSN plan,
//!   driven by index/clustered probes of connection relations, with two
//!   modes: [`ExecMode::Naive`] (re-sends every probe — the
//!   DISCOVER/DBXplorer baseline) and [`ExecMode::Cached`] (the optimized
//!   algorithm of §6 that memoizes partial results in a fixed-size cache
//!   keyed by the structural suffix signature + frontier bindings,
//!   avoiding the duplicate inner loops that multivalued-dependency-style
//!   redundancy causes — and sharing them across candidate networks with
//!   identical suffixes, the DISCOVER-style reuse).
//! * [`Join::Hash`] — full evaluation via in-memory hash joins over
//!   scanned relations (the regime where the paper's `MinNClustNIndx`
//!   decomposition wins).
//! * `k: Some(_)` — the web-search-engine presentation: a pool of
//!   threads, one candidate network at a time starting from the
//!   smallest, until K results have been produced overall.
//!
//! [`eval_plan`], [`eval_anchored`] and [`ResultStream`] evaluate single
//! plans outside the driver, for the presentation graph and the
//! page-by-page stream.
//!
//! Cached completions are pure join results (shared-role consistency +
//! keyword-candidate filters); the role-distinctness requirement of the
//! tree-isomorphism semantics is checked at emission, so cache entries
//! stay reusable under any outer binding.
//!
//! All paths emit [`ResultRow`]s (a role→TO assignment plus the CN
//! score) and report [`ExecStats`] (probe counts, rows, cache traffic) so
//! experiments can report logical work next to wall time.

use crate::error::XkError;
use crate::optimizer::CtssnPlan;
use crate::ranking::{topk_key, topk_key_parts, ThresholdTracker};
use crate::relations::RelationCatalog;
use crate::semantics::Mtton;
use crate::target::ToId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkw_store::{Db, IoSnapshot, LruCache, Row, StoreError};

/// Execution mode for the nested-loop engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No partial-result caching (the naive algorithm of §6).
    Naive,
    /// Partial-result caching with the given cache capacity (entries).
    Cached {
        /// Maximum number of cached partial-result lists.
        capacity: usize,
    },
}

/// One produced result: an MTTON with its role assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    /// Index of the plan (candidate network) that produced it.
    pub plan: usize,
    /// Bound target object per CTSSN role.
    pub assignment: Vec<ToId>,
    /// The score (CN size).
    pub score: usize,
}

impl ResultRow {
    /// Reduces to the canonical [`Mtton`] identity.
    pub fn to_mtton(&self) -> Mtton {
        let mut tos = self.assignment.clone();
        tos.sort_unstable();
        tos.dedup();
        Mtton {
            tos,
            score: self.score,
        }
    }
}

/// Counters reported by the engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Probes (queries) sent to the store.
    pub probes: u64,
    /// Rows returned by those probes.
    pub rows: u64,
    /// Partial-result cache hits.
    pub cache_hits: u64,
    /// Partial-result cache misses.
    pub cache_misses: u64,
    /// Results emitted.
    pub results: u64,
    /// Buffer-pool hits attributable to this evaluation. Measured from
    /// per-thread pool counters, so the numbers stay meaningful when
    /// other queries run concurrently against the same pool.
    pub io_hits: u64,
    /// Buffer-pool misses attributable to this evaluation.
    pub io_misses: u64,
}

impl ExecStats {
    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &ExecStats) {
        self.probes += other.probes;
        self.rows += other.rows;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.results += other.results;
        self.io_hits += other.io_hits;
        self.io_misses += other.io_misses;
    }
}

/// Cooperative cancellation for query evaluation: a deadline plus a
/// sticky stop flag, shared by every worker thread of one query. Workers
/// poll [`ExecCtl::should_stop`] at plan claims and probe boundaries —
/// the store never blocks indefinitely, so polling at I/O granularity
/// bounds overshoot by one probe. Once any poll observes the deadline,
/// the flag latches and every other worker sees it on its next poll
/// without reading the clock.
#[derive(Debug, Default)]
pub struct ExecCtl {
    deadline: Option<Instant>,
    stop: AtomicBool,
}

impl ExecCtl {
    /// A control block that never stops evaluation.
    pub fn unbounded() -> Self {
        ExecCtl::default()
    }

    /// A control block that stops evaluation `budget` from now (`None` =
    /// unbounded).
    pub fn within(budget: Option<Duration>) -> Self {
        ExecCtl {
            deadline: budget.and_then(|d| Instant::now().checked_add(d)),
            stop: AtomicBool::new(false),
        }
    }

    /// Whether evaluation should stop. Unbounded control blocks pay one
    /// relaxed load; bounded ones read the clock until the deadline
    /// latches.
    pub fn should_stop(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.stop.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Whether the deadline ever latched (distinguishes "stopped because
    /// out of time" from "ran to completion").
    pub fn timed_out(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// A cumulative evaluation-time budget shared by every query of one
/// session (one network connection, one interactive client, one tenant —
/// whatever the caller scopes it to). Each query draws its deadline from
/// what is left: [`SessionBudget::clamp`] caps a requested per-query
/// deadline by the remaining budget, and [`SessionBudget::charge`]
/// deducts the time a query actually spent. A session that burns through
/// its budget degrades gracefully — late queries get ever-tighter
/// [`ExecCtl`] deadlines (so they return partial answers with a
/// [`Degradation`] report, exactly the PR 4 contract) until the budget
/// is exhausted and [`SessionBudget::exhausted`] tells the caller to
/// reject outright.
///
/// Thread-safe: servers poll and charge from the connection thread while
/// admission code inspects `remaining` from elsewhere. Charging
/// saturates at zero; over-charge (a query that overshot its clamped
/// deadline by a probe, see [`ExecCtl::should_stop`]) just exhausts the
/// budget sooner, never underflows.
#[derive(Debug)]
pub struct SessionBudget {
    /// Remaining budget in nanoseconds; `u64::MAX` means unlimited.
    remaining_ns: std::sync::atomic::AtomicU64,
}

impl SessionBudget {
    /// A session allowed `total` cumulative evaluation time.
    pub fn new(total: Duration) -> Self {
        SessionBudget {
            remaining_ns: std::sync::atomic::AtomicU64::new(
                u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
            ),
        }
    }

    /// A session with no cumulative limit: `clamp` passes deadlines
    /// through untouched and `charge` is a no-op.
    pub fn unlimited() -> Self {
        SessionBudget {
            remaining_ns: std::sync::atomic::AtomicU64::new(u64::MAX),
        }
    }

    /// The remaining budget, or `None` when the session is unlimited.
    pub fn remaining(&self) -> Option<Duration> {
        match self.remaining_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Whether the budget is spent. Unlimited sessions never exhaust.
    pub fn exhausted(&self) -> bool {
        self.remaining_ns.load(Ordering::Relaxed) == 0
    }

    /// The effective deadline for the next query: the tighter of the
    /// requested per-query deadline and the remaining session budget.
    /// `None` in → `None` out only while the session is unlimited.
    pub fn clamp(&self, requested: Option<Duration>) -> Option<Duration> {
        match (self.remaining(), requested) {
            (None, req) => req,
            (Some(rem), None) => Some(rem),
            (Some(rem), Some(req)) => Some(req.min(rem)),
        }
    }

    /// Deducts time a query actually spent. Saturates at zero.
    pub fn charge(&self, spent: Duration) {
        let spent_ns = u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX);
        // CAS loop: unlimited sessions stay unlimited, bounded ones
        // saturate at zero (fetch_sub could wrap and fetch_update keeps
        // the MAX sentinel intact).
        let _ =
            self.remaining_ns
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |rem| match rem {
                    u64::MAX => None,
                    r => Some(r.saturating_sub(spent_ns)),
                });
    }
}

/// A worker's view of the shared top-k threshold while it evaluates one
/// plan: the tracker's published cell plus this plan's (fixed) score
/// bound. One relaxed load answers "can this plan still contribute a
/// top-k row?" — `false` means at least `k` collected rows already sort
/// strictly before every row this plan can produce.
#[derive(Clone, Copy)]
struct PrunePoll<'a> {
    cell: &'a AtomicU64,
    bound: u64,
}

impl PrunePoll<'_> {
    /// Whether the plan is now beaten: the published k-th-best key is
    /// *strictly* smaller than every key this plan can produce. Strict,
    /// so a plan's own rows (key == bound) never cut the plan itself.
    fn cut(&self) -> bool {
        self.cell.load(Ordering::Relaxed) < self.bound
    }
}

/// What the inner evaluation loops poll at probe boundaries: the query's
/// control block (deadline / stop flag) plus, on the pruned top-k path,
/// the threshold poll for the plan under evaluation.
struct ProbeCtl<'a> {
    exec: &'a ExecCtl,
    prune: Option<PrunePoll<'a>>,
}

impl<'a> ProbeCtl<'a> {
    /// A probe control without threshold pruning (every non-top-k path).
    fn plain(exec: &'a ExecCtl) -> Self {
        ProbeCtl { exec, prune: None }
    }

    fn cut(&self) -> bool {
        self.prune.is_some_and(|p| p.cut())
    }
}

/// Why an evaluation stopped before completing a plan (internal to the
/// executors; surfaced as [`Degradation`] / [`XkError`]).
enum EvalAbort {
    /// The query deadline elapsed.
    Deadline,
    /// The top-k threshold proved the plan can no longer contribute.
    Pruned,
    /// The store reported an unrecoverable page fault.
    Fault(StoreError),
}

impl std::fmt::Display for EvalAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalAbort::Deadline => write!(f, "query deadline exceeded"),
            EvalAbort::Pruned => write!(f, "plan pruned by the top-k threshold"),
            EvalAbort::Fault(e) => write!(f, "{e}"),
        }
    }
}

/// Unwraps an evaluator result on the infallible single-plan paths,
/// turning an abort into a panic (unbounded control blocks never produce
/// [`EvalAbort::Deadline`], so this only fires on store faults — the
/// same behavior the panicking store accessors had).
fn unwrap_abort<T>(r: Result<T, EvalAbort>) -> T {
    r.unwrap_or_else(|a| panic!("{a}"))
}

/// How a degraded query fell short of a complete answer. Attached to
/// every [`QueryResults`]; a default (all-zero) report means the answer
/// is complete. Every row in a degraded result is still a genuine MTTON
/// — degradation means *incomplete*, never *wrong*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// The deadline elapsed during evaluation.
    pub deadline_exceeded: bool,
    /// Plans never started because evaluation stopped first.
    pub plans_skipped: usize,
    /// Plans started but aborted mid-evaluation (deadline or fault);
    /// their emitted rows are kept.
    pub plans_incomplete: usize,
    /// Unrecoverable store faults hit, as `(plan index, error)`, sorted
    /// by plan index.
    pub faults: Vec<(usize, StoreError)>,
    /// Read retries the store spent during this query (from the fault
    /// layer's global counters; approximate under concurrent queries).
    pub retries: u64,
}

impl Degradation {
    /// Whether the result fell short of a complete answer.
    pub fn is_degraded(&self) -> bool {
        self.deadline_exceeded
            || self.plans_skipped > 0
            || self.plans_incomplete > 0
            || !self.faults.is_empty()
    }
}

/// Adds the calling thread's buffer-pool delta since `before` to `stats`
/// — the engines call this with a `db.local_io()` snapshot taken when
/// they started working, attributing I/O per query even under
/// concurrency.
fn charge_local_io(stats: &mut ExecStats, db: &Db, before: xkw_store::IoSnapshot) {
    let delta = db.local_io().since(before);
    stats.io_hits += delta.hits;
    stats.io_misses += delta.misses;
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_owned(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_owned(),
        },
    }
}

/// Builds the typed error for a worker panic caught while evaluating
/// plan `pi` (keywords are decorated higher up, by the engine).
fn worker_panic(pi: usize, payload: Box<dyn std::any::Any + Send>) -> XkError {
    XkError::WorkerPanic {
        message: panic_message(payload),
        plan: Some(pi),
        keywords: Vec::new(),
    }
}

/// Observes individual store probes during nested-loop evaluation — the
/// hook EXPLAIN ANALYZE hangs off. The driver creates one per claimed
/// plan and harvests it when the plan is done. Unprofiled runs use
/// [`NoProbeObs`], a ZST whose methods compile to nothing, so the hot
/// loop pays for instrumentation only in profiled runs.
pub trait ProbeObserver {
    /// Whether probes are measured at all (lets the evaluator skip the
    /// per-probe I/O snapshots and clock reads entirely, and the driver
    /// its per-plan clock).
    const ACTIVE: bool = false;
    /// An observer for a plan with `n` tile steps.
    fn for_steps(n: usize) -> Self;
    /// One store probe: plan step, rows returned, attributed buffer-pool
    /// delta and elapsed wall time.
    fn record(&mut self, _step: usize, _rows: u64, _io: IoSnapshot, _nanos: u64) {}
    /// The per-step totals observed.
    fn into_steps(self) -> Vec<StepProbe>;
}

/// The no-op observer of the unprofiled execution paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbeObs;

impl ProbeObserver for NoProbeObs {
    fn for_steps(_: usize) -> Self {
        NoProbeObs
    }

    fn into_steps(self) -> Vec<StepProbe> {
        Vec::new()
    }
}

/// Per-step probe totals accumulated by [`StepProbeObs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepProbe {
    /// Probes sent for this tile step.
    pub probes: u64,
    /// Rows those probes returned.
    pub rows: u64,
    /// Buffer-pool hits attributed to the step.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to the step.
    pub io_misses: u64,
    /// Wall time inside the store, nanoseconds.
    pub nanos: u64,
}

/// Collects per-tile-step probe totals for EXPLAIN ANALYZE runs.
#[derive(Debug, Clone, Default)]
pub struct StepProbeObs {
    /// One accumulator per tile step of the plan under evaluation.
    pub steps: Vec<StepProbe>,
}

impl ProbeObserver for StepProbeObs {
    const ACTIVE: bool = true;

    fn for_steps(n: usize) -> Self {
        StepProbeObs {
            steps: vec![StepProbe::default(); n],
        }
    }

    fn record(&mut self, step: usize, rows: u64, io: IoSnapshot, nanos: u64) {
        let s = &mut self.steps[step];
        s.probes += 1;
        s.rows += rows;
        s.io_hits += io.hits;
        s.io_misses += io.misses;
        s.nanos += nanos;
    }

    fn into_steps(self) -> Vec<StepProbe> {
        self.steps
    }
}

/// The partial-result cache key: suffix signature + frontier bindings.
pub type PartialKey = (Arc<str>, Vec<ToId>);

/// The partial-result cache: suffix signature + frontier bindings →
/// completions (bindings of the roles first bound anywhere in the
/// suffix, in step order).
pub type PartialCache = LruCache<PartialKey, Arc<Vec<Vec<ToId>>>>;

/// What the cached evaluator needs from a partial-result cache. Lets
/// [`eval_plan`] run against either a thread-private [`PartialCache`] or
/// a [`SharedPartialCache`] striped across worker threads, without the
/// hot path paying for dynamic dispatch.
pub trait PartialCacheOps {
    /// Looks up a suffix completion, refreshing its recency.
    fn lookup(&mut self, key: &PartialKey) -> Option<Arc<Vec<Vec<ToId>>>>;
    /// Stores a computed suffix completion.
    fn store(&mut self, key: PartialKey, value: Arc<Vec<Vec<ToId>>>);
}

impl PartialCacheOps for PartialCache {
    fn lookup(&mut self, key: &PartialKey) -> Option<Arc<Vec<Vec<ToId>>>> {
        self.get(key).cloned()
    }

    fn store(&mut self, key: PartialKey, value: Arc<Vec<Vec<ToId>>>) {
        self.put(key, value);
    }
}

/// `T`s behind lock stripes, one picked by key hash: what the worker
/// threads of one request share.
struct Striped<T> {
    shards: Vec<Mutex<T>>,
}

impl<T> Striped<T> {
    /// Enough shards for `threads` workers (next power of two, capped
    /// at 32), each built by `shard` from the shard count.
    fn new(threads: usize, shard: impl Fn(usize) -> T) -> Self {
        let n = threads.clamp(1, 32).next_power_of_two();
        Striped {
            shards: (0..n).map(|_| Mutex::new(shard(n))).collect(),
        }
    }

    fn shard_of(&self, key: &impl Hash) -> &Mutex<T> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize & (self.shards.len() - 1)]
    }
}

/// A lock-striped partial-result cache shared by the worker threads of
/// one query, so the §6 DISCOVER-style suffix reuse crosses candidate
/// networks even when those networks run on different threads: a suffix
/// computed by one worker is a hit for every other worker evaluating a
/// CN with the same structural suffix. Entries are `Arc`s of pure join
/// results (no binding-dependent state), so sharing is coherent by
/// construction — a racing recompute produces an identical value.
pub struct SharedPartialCache(Striped<PartialCache>);

impl SharedPartialCache {
    /// A cache of `mode`'s capacity in total, striped for `threads`
    /// workers.
    pub fn new(mode: ExecMode, threads: usize) -> Self {
        let capacity = match mode {
            ExecMode::Naive => 0,
            ExecMode::Cached { capacity } => capacity,
        };
        SharedPartialCache(Striped::new(threads, |n| {
            LruCache::new(capacity.div_ceil(n))
        }))
    }
}

impl PartialCacheOps for &SharedPartialCache {
    fn lookup(&mut self, key: &PartialKey) -> Option<Arc<Vec<Vec<ToId>>>> {
        self.0.shard_of(key).lock().get(key).cloned()
    }

    fn store(&mut self, key: PartialKey, value: Arc<Vec<Vec<ToId>>>) {
        self.0.shard_of(&key).lock().put(key, value);
    }
}

/// One plan's nested-loop evaluation: everything the recursion over
/// tile steps threads through every level. `C` and `O` are
/// monomorphised, so the production [`NoProbeObs`] costs nothing.
struct NestedLoopEval<'a, C, O> {
    db: &'a Db,
    catalog: &'a RelationCatalog,
    plan: &'a CtssnPlan,
    mode: ExecMode,
    cache: &'a mut C,
    stats: &'a mut ExecStats,
    obs: &'a mut O,
    ctl: ProbeCtl<'a>,
}

impl<C: PartialCacheOps, O: ProbeObserver> NestedLoopEval<'_, C, O> {
    /// Evaluates the plan over every driver candidate, calling `emit`
    /// for each result: stops at the control block's deadline and
    /// propagates unrecoverable store faults as typed aborts instead of
    /// panicking. Buffer-pool traffic is charged to `stats` even when the
    /// evaluation aborts.
    ///
    /// `limit` is the pushed-down per-plan result budget: evaluation
    /// returns `Break` once `limit` rows have been emitted, exactly as if
    /// `emit` had broken on the `limit`-th row (`usize::MAX` =
    /// unlimited). The budget caps *emission*, never the materialization
    /// of cached completions — a truncated completion list in the shared
    /// cache would silently corrupt every later query that hits it.
    ///
    /// When the control block's top-k threshold poll trips at a probe
    /// boundary, evaluation aborts with [`EvalAbort::Pruned`] (rows
    /// already emitted stay with the caller; see `Run::claim_plans` for
    /// why that is sound).
    fn plan(
        &mut self,
        plan_idx: usize,
        limit: usize,
        emit: &mut dyn FnMut(ResultRow) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, EvalAbort> {
        let plan = self.plan;
        let _span = xkw_obs::span!(
            "exec.plan",
            plan = plan_idx,
            score = plan.score,
            tiles = plan.tiles.len()
        );
        let driver_cands = plan.candidates[plan.driver as usize]
            .as_ref()
            .expect("driver is annotated");
        let mut produced = 0usize;
        let mut limited = |row| {
            if emit(row).is_break() {
                return ControlFlow::Break(());
            }
            produced += 1;
            if produced >= limit {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let io_before = self.db.local_io();
        let mut assignment = vec![None; plan.role_count()];
        // Candidate sets are stored sorted — ascending iteration is the
        // deterministic order reproducibility relies on.
        let mut flow = Ok(ControlFlow::Continue(()));
        for to in driver_cands.iter() {
            flow = self.driver_binding(plan_idx, to, &mut assignment, &mut limited);
            if !matches!(flow, Ok(ControlFlow::Continue(()))) {
                break;
            }
        }
        charge_local_io(self.stats, self.db, io_before);
        flow
    }

    /// Emits every result with the driver role bound to `to`.
    /// `assignment` is scratch: one unbound slot per role, going in and
    /// coming out (unless the evaluation aborts).
    fn driver_binding(
        &mut self,
        plan_idx: usize,
        to: ToId,
        assignment: &mut Vec<Option<ToId>>,
        emit: &mut dyn FnMut(ResultRow) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, EvalAbort> {
        let plan = self.plan;
        assignment[plan.driver as usize] = Some(to);
        let subs = self.completions(0, assignment)?;
        let mut flow = ControlFlow::Continue(());
        for sub in subs.iter() {
            for (r, v) in plan.new_roles.iter().flatten().zip(sub) {
                assignment[*r as usize] = Some(*v);
            }
            if check_distinct(plan, assignment) {
                self.stats.results += 1;
                flow = emit(ResultRow {
                    plan: plan_idx,
                    assignment: assignment.iter().map(|a| a.unwrap()).collect(),
                    score: plan.score,
                });
                if flow.is_break() {
                    break;
                }
            }
        }
        assignment.fill(None);
        Ok(flow)
    }

    /// All completions of the suffix `i..` — bindings for the roles
    /// first bound in it (`new_roles[i..]`, flattened), computed by
    /// probing — and, in
    /// cached mode, memoized on (suffix signature, frontier bindings).
    /// Aborted computations are **never** stored — a partial completion
    /// in the cache would silently truncate every later query that hits
    /// it.
    fn completions(
        &mut self,
        i: usize,
        assignment: &mut Vec<Option<ToId>>,
    ) -> Result<Arc<Vec<Vec<ToId>>>, EvalAbort> {
        let plan = self.plan;
        if i == plan.tiles.len() {
            return Ok(Arc::new(vec![Vec::new()]));
        }
        let key = matches!(self.mode, ExecMode::Cached { .. }).then(|| {
            let frontier = plan.key_roles[i]
                .iter()
                .map(|&r| assignment[r as usize].expect("key role bound"))
                .collect::<Vec<ToId>>();
            (plan.step_sigs[i].clone(), frontier)
        });
        if let Some(key) = &key {
            if let Some(hit) = self.cache.lookup(key) {
                self.stats.cache_hits += 1;
                return Ok(hit);
            }
            self.stats.cache_misses += 1;
        }
        let mut out: Vec<Vec<ToId>> = Vec::new();
        for row in self.probe_tile(i, assignment)? {
            if bind_row(plan, i, &row, assignment) {
                let local: Vec<ToId> = plan.new_roles[i]
                    .iter()
                    .map(|&r| assignment[r as usize].expect("bound"))
                    .collect();
                let subs = self.completions(i + 1, assignment);
                unbind_row(plan, i, assignment);
                for sub in subs?.iter() {
                    let mut c = local.clone();
                    c.extend_from_slice(sub);
                    out.push(c);
                }
            }
        }
        let arc = Arc::new(out);
        if let Some(key) = key {
            self.cache.store(key, arc.clone());
        }
        Ok(arc)
    }

    /// Probes tile `i`'s relation on its currently-bound columns. Checks
    /// the control block first (the probe boundary is the cancellation
    /// point — for the deadline and for the top-k threshold alike) and
    /// reports unrecoverable store faults as aborts.
    fn probe_tile(&mut self, i: usize, assignment: &[Option<ToId>]) -> Result<Vec<Row>, EvalAbort> {
        if self.ctl.exec.should_stop() {
            return Err(EvalAbort::Deadline);
        }
        if self.ctl.cut() {
            return Err(EvalAbort::Pruned);
        }
        let tile = &self.plan.tiles[i];
        let mut cols: Vec<usize> = Vec::new();
        let mut key: Vec<ToId> = Vec::new();
        for (c, &role) in tile.cols_to_roles.iter().enumerate() {
            if let Some(v) = assignment[role as usize] {
                cols.push(c);
                key.push(v);
            }
        }
        self.stats.probes += 1;
        let measured = O::ACTIVE.then(|| (self.db.local_io(), Instant::now()));
        let (rows, _) = self
            .catalog
            .try_probe(self.db, tile.rel, &cols, &key)
            .map_err(EvalAbort::Fault)?;
        if let Some((io_before, t0)) = measured {
            self.obs.record(
                i,
                rows.len() as u64,
                self.db.local_io().since(io_before),
                t0.elapsed().as_nanos() as u64,
            );
        }
        self.stats.rows += rows.len() as u64;
        Ok(rows)
    }
}

/// Evaluates one plan, calling `emit` for each result. `emit` may stop
/// the evaluation early by returning [`ControlFlow::Break`]. Unbounded
/// and infallible: a store fault panics, as the panicking store
/// accessors do ([`execute`] is the fault-aware path).
#[allow(clippy::too_many_arguments)]
pub fn eval_plan<C: PartialCacheOps>(
    db: &Db,
    catalog: &RelationCatalog,
    plan_idx: usize,
    plan: &CtssnPlan,
    mode: ExecMode,
    cache: &mut C,
    stats: &mut ExecStats,
    emit: &mut dyn FnMut(ResultRow) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let ctl = ExecCtl::unbounded();
    let mut eval = NestedLoopEval {
        db,
        catalog,
        plan,
        mode,
        cache,
        stats,
        obs: &mut NoProbeObs,
        ctl: ProbeCtl::plain(&ctl),
    };
    unwrap_abort(eval.plan(plan_idx, usize::MAX, emit))
}

/// Evaluates a plan anchored at a single driver binding `to` (the
/// driver role comes from the plan — see
/// [`crate::optimizer::build_plan_anchored`]). Used by the on-demand
/// presentation-graph expansion, which pins the expanded target object
/// and searches for its connections.
#[allow(clippy::too_many_arguments)]
pub fn eval_anchored<C: PartialCacheOps>(
    db: &Db,
    catalog: &RelationCatalog,
    plan: &CtssnPlan,
    to: ToId,
    mode: ExecMode,
    cache: &mut C,
    stats: &mut ExecStats,
    emit: &mut dyn FnMut(ResultRow) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let candidates = &plan.candidates[plan.driver as usize];
    if candidates.as_ref().is_some_and(|c| !c.contains(&to)) {
        return ControlFlow::Continue(());
    }
    let io_before = db.local_io();
    let ctl = ExecCtl::unbounded();
    let mut eval = NestedLoopEval {
        db,
        catalog,
        plan,
        mode,
        cache,
        stats: &mut *stats,
        obs: &mut NoProbeObs,
        ctl: ProbeCtl::plain(&ctl),
    };
    let mut assignment = vec![None; plan.role_count()];
    let flow = unwrap_abort(eval.driver_binding(usize::MAX, to, &mut assignment, emit));
    charge_local_io(stats, db, io_before);
    flow
}

/// Binds a probed row into the assignment; `false` when it conflicts
/// with existing bindings or keyword candidates. (Role distinctness is
/// checked at emission so cached completions stay reusable.)
fn bind_row(plan: &CtssnPlan, i: usize, row: &Row, assignment: &mut [Option<ToId>]) -> bool {
    let tile = &plan.tiles[i];
    let mut newly: Vec<u8> = Vec::new();
    let mut ok = true;
    for (c, &role) in tile.cols_to_roles.iter().enumerate() {
        let v = row[c];
        match assignment[role as usize] {
            Some(existing) if existing != v => {
                ok = false;
                break;
            }
            Some(_) => {}
            None => {
                if let Some(cands) = &plan.candidates[role as usize] {
                    if !cands.contains(&v) {
                        ok = false;
                        break;
                    }
                }
                assignment[role as usize] = Some(v);
                newly.push(role);
            }
        }
    }
    if !ok {
        for r in newly {
            assignment[r as usize] = None;
        }
        return false;
    }
    true
}

/// Clears the roles bound by tile `i` that are not bound by earlier
/// steps.
fn unbind_row(plan: &CtssnPlan, i: usize, assignment: &mut [Option<ToId>]) {
    for &r in &plan.new_roles[i] {
        assignment[r as usize] = None;
    }
}

/// Role-distinctness: roles of the same segment must bind distinct
/// target objects (tree-isomorphism semantics of §3.1).
fn check_distinct(plan: &CtssnPlan, assignment: &[Option<ToId>]) -> bool {
    let n = assignment.len();
    for a in 0..n {
        for b in a + 1..n {
            if plan.ctssn.tree.roles[a] == plan.ctssn.tree.roles[b]
                && assignment[a].is_some()
                && assignment[a] == assignment[b]
            {
                return false;
            }
        }
    }
    true
}

/// What the top-k threshold saved (and proved) during one query. A
/// default report (`enabled: false`, all zero) means the evaluation ran
/// without threshold pruning — every non-top-k path, and top-k with
/// pruning explicitly disabled. Pruning is *never* degradation: a pruned
/// plan is one the threshold proved irrelevant, so the answer is still
/// exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Whether threshold pruning was active for this evaluation.
    pub enabled: bool,
    /// Plans actually started by a worker (claimed and evaluated, even
    /// partially). With pruning off this counts every claimed plan.
    pub plans_claimed: usize,
    /// Plans skipped at claim time because the threshold already beat
    /// their score bound — never started, zero probes spent.
    pub plans_pruned: usize,
    /// Plans aborted mid-evaluation at a probe boundary once the
    /// threshold latched below their bound. Their emitted rows are kept
    /// (harmless — they sort after the k kept rows).
    pub plans_early_stopped: usize,
    /// The latched threshold as `(score, plan index)` of the k-th best
    /// collected row, when `k` rows were observed.
    pub threshold: Option<(usize, usize)>,
}

/// The results of a query evaluation.
#[derive(Debug, Default)]
pub struct QueryResults {
    /// Result rows in emission order.
    pub rows: Vec<ResultRow>,
    /// Merged statistics.
    pub stats: ExecStats,
    /// How (if at all) the answer fell short of completeness — deadline
    /// or store-fault degradation. Default means complete.
    pub degradation: Degradation,
    /// What top-k threshold pruning did (default: pruning not active).
    pub prune: PruneReport,
}

impl QueryResults {
    /// Deduplicated MTTONs, sorted by (score, tos).
    pub fn mttons(&self) -> Vec<Mtton> {
        let mut v: Vec<Mtton> = self.rows.iter().map(ResultRow::to_mtton).collect();
        v.sort();
        v.dedup();
        v
    }
}

fn new_cache(mode: ExecMode) -> PartialCache {
    match mode {
        ExecMode::Naive => LruCache::new(0),
        ExecMode::Cached { capacity } => LruCache::new(capacity),
    }
}

/// A pull-based result stream: evaluates plans lazily, one driver
/// binding at a time, so results can be delivered "page by page as in
/// web search engine interfaces" (§3.2) without computing the full
/// result set. Plans are consumed in the given (score) order, so early
/// pages are dominated by small (better) results.
pub struct ResultStream<'a> {
    db: &'a Db,
    catalog: &'a RelationCatalog,
    plans: &'a [CtssnPlan],
    mode: ExecMode,
    cache: PartialCache,
    stats: ExecStats,
    plan_idx: usize,
    drivers: std::vec::IntoIter<ToId>,
    pending: std::collections::VecDeque<ResultRow>,
}

impl<'a> ResultStream<'a> {
    /// Starts streaming over `plans` (assumed sorted by score).
    pub fn new(
        db: &'a Db,
        catalog: &'a RelationCatalog,
        plans: &'a [CtssnPlan],
        mode: ExecMode,
    ) -> Self {
        let mut s = ResultStream {
            db,
            catalog,
            plans,
            mode,
            cache: new_cache(mode),
            stats: ExecStats::default(),
            plan_idx: 0,
            drivers: Vec::new().into_iter(),
            pending: std::collections::VecDeque::new(),
        };
        s.load_plan_drivers();
        s
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    fn load_plan_drivers(&mut self) {
        if let Some(plan) = self.plans.get(self.plan_idx) {
            // Already sorted ascending — the deterministic driver order.
            let d: Vec<ToId> = plan.candidates[plan.driver as usize]
                .as_ref()
                .expect("driver is annotated")
                .iter()
                .collect();
            self.drivers = d.into_iter();
        }
    }

    /// Collects the next page of up to `n` results.
    pub fn page(&mut self, n: usize) -> Vec<ResultRow> {
        self.take(n).collect()
    }
}

impl Iterator for ResultStream<'_> {
    type Item = ResultRow;

    fn next(&mut self) -> Option<ResultRow> {
        loop {
            if let Some(r) = self.pending.pop_front() {
                return Some(r);
            }
            let plan = self.plans.get(self.plan_idx)?;
            let Some(to) = self.drivers.next() else {
                self.plan_idx += 1;
                self.load_plan_drivers();
                continue;
            };
            // Evaluate this one driver binding.
            let io_before = self.db.local_io();
            let ctl = ExecCtl::unbounded();
            let pending = &mut self.pending;
            let mut eval = NestedLoopEval {
                db: self.db,
                catalog: self.catalog,
                plan,
                mode: self.mode,
                cache: &mut self.cache,
                stats: &mut self.stats,
                obs: &mut NoProbeObs,
                ctl: ProbeCtl::plain(&ctl),
            };
            let mut assignment = vec![None; plan.role_count()];
            let _ =
                unwrap_abort(
                    eval.driver_binding(self.plan_idx, to, &mut assignment, &mut |row| {
                        pending.push_back(row);
                        ControlFlow::Continue(())
                    }),
                );
            charge_local_io(&mut self.stats, self.db, io_before);
        }
    }
}

/// One plan's raw EXPLAIN ANALYZE measurements, as produced by
/// [`execute_profiled`]. Engine-level code turns these into presentable
/// `xkw_obs::PlanProfile` trees (it has the names; this layer has the
/// numbers).
#[derive(Debug, Clone, Default)]
pub struct PlanExecProfile {
    /// Plan index in score order.
    pub plan: usize,
    /// The plan's score (CN size).
    pub score: usize,
    /// Driver bindings iterated.
    pub drivers: u64,
    /// Result rows the plan emitted.
    pub rows_out: u64,
    /// Wall time for the whole plan, nanoseconds.
    pub elapsed_ns: u64,
    /// The plan's merged statistics (probes, rows, cache traffic,
    /// attributed I/O).
    pub stats: ExecStats,
    /// Per-tile-step probe totals of a nested-loop plan. Summing
    /// `io_hits`/`io_misses` over the steps reproduces
    /// `stats.io_hits`/`stats.io_misses` exactly: every buffer-pool
    /// request a nested-loop plan issues flows through its tile probes.
    /// Empty for hash plans, whose scan I/O is charged to the plan as a
    /// whole.
    pub steps: Vec<StepProbe>,
    /// Whether top-k made this plan unnecessary before it was evaluated
    /// (the threshold beat its bound, or `k` rows were already in). A
    /// pruned plan spent no probes and no I/O, so plan I/O still sums to
    /// the query total exactly.
    pub pruned: bool,
    /// Whether the deadline expired before this plan started. Like
    /// `pruned`, a skipped plan spent no probes and no I/O, keeping the
    /// decomposition exact for degraded captures.
    pub skipped: bool,
}

/// The join algorithm a request evaluates its plans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Join {
    /// Nested-loop probes of the connection relations (§6), naive or
    /// with the partial-result cache.
    NestedLoop(ExecMode),
    /// Full scans + in-memory hash joins (§7's "all results" regime,
    /// where the paper's `MinNClustNIndx` decomposition wins). Keyword
    /// filters are applied during the scans; tiles are joined in plan
    /// order on their shared roles.
    Hash,
}

/// One evaluation request — the execution module's whole input. Every
/// combination of the fields is a supported shape, evaluated by the one
/// driver behind [`execute`] / [`execute_profiled`].
#[derive(Debug, Clone, Copy)]
pub struct ExecRequest<'a> {
    /// Candidate-network plans in score order (smallest first).
    /// [`ResultRow::plan`] indexes into this slice.
    pub plans: &'a [CtssnPlan],
    /// How each plan is evaluated.
    pub join: Join,
    /// `Some(k)`: the web-search-engine presentation — the first `k`
    /// rows in `(score, plan, assignment)` order. `None`: every plan to
    /// completion, rows in plan order.
    pub k: Option<usize>,
    /// Top-k threshold pruning (ignored without `k`). `false` is the
    /// evaluate-then-truncate reference the pruned path is pinned
    /// against; rows are identical either way.
    pub prune: bool,
    /// Worker threads, clamped to `1..=plans.len()`. One worker runs
    /// inline on the caller's thread. Rows are identical for every
    /// count; statistics may attribute cache traffic differently (and
    /// two hash workers racing on a scan may both be charged a probe).
    pub threads: usize,
    /// Evaluation budget; `None` never stops.
    pub deadline: Option<Duration>,
}

impl<'a> ExecRequest<'a> {
    /// Every plan to completion on one inline worker, no deadline.
    pub fn all(plans: &'a [CtssnPlan], join: Join) -> Self {
        ExecRequest {
            plans,
            join,
            k: None,
            prune: true,
            threads: 1,
            deadline: None,
        }
    }

    /// Pruned top-`k` on one inline worker, no deadline.
    pub fn topk(plans: &'a [CtssnPlan], join: Join, k: usize) -> Self {
        ExecRequest {
            k: Some(k),
            ..ExecRequest::all(plans, join)
        }
    }
}

/// How a worker finished one plan of the claim sequence.
enum PlanOutcome {
    /// Skipped at claim time: the top-k threshold already beat its
    /// bound. Never started, zero probes spent.
    Cut,
    /// Ran to completion (or to its pushed-down result limit).
    Done,
    /// Aborted on the deadline; emitted rows are kept.
    Incomplete,
    /// Aborted mid-plan by the top-k threshold; emitted rows are kept.
    /// Not degradation — the threshold *proved* the rest of the plan
    /// cannot contribute a top-k row.
    EarlyStopped,
    /// Aborted on an unrecoverable store fault; emitted rows are kept.
    Fault(StoreError),
}

/// What a worker reports for each plan it claimed.
struct PlanReport {
    plan: usize,
    outcome: PlanOutcome,
    rows: Vec<ResultRow>,
    stats: ExecStats,
    /// Per-step probe totals and plan wall time; profiled runs only.
    steps: Vec<StepProbe>,
    elapsed_ns: u64,
}

/// One worker's join algorithm together with its memo state (a private
/// cache on the inline path, a striped shared one across workers).
trait PlanEvaluator {
    /// Evaluates plan `pi` into `report` (rows, stats, probe steps).
    fn eval<O: ProbeObserver>(
        &mut self,
        run: &Run<'_>,
        pi: usize,
        poll: Option<PrunePoll<'_>>,
        report: &mut PlanReport,
    ) -> Result<(), EvalAbort>;
}

struct NestedLoop<C> {
    mode: ExecMode,
    cache: C,
}

impl<C: PartialCacheOps> PlanEvaluator for NestedLoop<C> {
    fn eval<O: ProbeObserver>(
        &mut self,
        run: &Run<'_>,
        pi: usize,
        poll: Option<PrunePoll<'_>>,
        report: &mut PlanReport,
    ) -> Result<(), EvalAbort> {
        let plan = &run.plans[pi];
        let mut obs = O::for_steps(plan.tiles.len());
        let rows = &mut report.rows;
        let mut eval = NestedLoopEval {
            db: run.db,
            catalog: run.catalog,
            plan,
            mode: self.mode,
            cache: &mut self.cache,
            stats: &mut report.stats,
            obs: &mut obs,
            ctl: ProbeCtl {
                exec: &run.ctl,
                prune: poll,
            },
        };
        let flow = eval.plan(pi, run.limit, &mut |row| {
            run.observe_row(plan, pi);
            rows.push(row);
            ControlFlow::Continue(())
        });
        report.steps = obs.into_steps();
        flow.map(drop)
    }
}

/// Hash plans have no probe steps: all their I/O is scan I/O, charged
/// to the plan as a whole.
struct HashJoin<M>(M);

impl<M: ScanMemoOps> PlanEvaluator for HashJoin<M> {
    fn eval<O: ProbeObserver>(
        &mut self,
        run: &Run<'_>,
        pi: usize,
        poll: Option<PrunePoll<'_>>,
        report: &mut PlanReport,
    ) -> Result<(), EvalAbort> {
        let plan = &run.plans[pi];
        let _span = xkw_obs::span!(
            "exec.hash_plan",
            plan = pi,
            score = plan.score,
            tiles = plan.tiles.len()
        );
        let ctl = ProbeCtl {
            exec: &run.ctl,
            prune: poll,
        };
        let io_before = run.db.local_io();
        let flow = hash_join_plan(run, pi, &ctl, &mut self.0, report);
        charge_local_io(&mut report.stats, run.db, io_before);
        if report.rows.len() > run.limit {
            // Everything is computed anyway: keep the plan's true first k.
            report.rows.sort_by(|a, b| a.assignment.cmp(&b.assignment));
            report.rows.truncate(run.limit);
        }
        for _ in &report.rows {
            run.observe_row(plan, pi);
        }
        flow
    }
}

/// The state every worker of one request shares.
struct Run<'a> {
    db: &'a Db,
    catalog: &'a RelationCatalog,
    plans: &'a [CtssnPlan],
    ctl: ExecCtl,
    /// The pushed-down per-plan row limit: `k`, or unlimited.
    limit: usize,
    /// The shared top-k threshold (pruned top-k only).
    tracker: Option<ThresholdTracker>,
    /// Rows of finished plans — the unpruned top-k stop rule.
    emitted: AtomicUsize,
    next_plan: AtomicUsize,
}

impl Run<'_> {
    fn observe_row(&self, plan: &CtssnPlan, pi: usize) {
        if let Some(t) = &self.tracker {
            t.observe(topk_key(plan.score, pi));
        }
    }

    /// The plan-claim loop — the only one. Workers pull candidate
    /// networks in score order (§6): check the stop flag, check the
    /// top-k cut, evaluate one plan under `catch_unwind` with a per-plan
    /// observer, hand the outcome to `sink`. Rows emitted before a
    /// deadline or fault abort are kept (each is a genuine MTTON), so a
    /// stopped request degrades to a partial answer rather than nothing.
    ///
    /// With pruning on, a shared [`ThresholdTracker`] watches the k-th
    /// best collected row; workers skip plans (and abort mid-plan) once
    /// it proves them irrelevant, and the collected rows are sorted by
    /// `(score, plan, assignment)` before truncating to `k`. With it
    /// off, claiming stops once finished plans hold `k` rows (the
    /// per-plan `k`-row limit applies on both paths).
    ///
    /// # Why the pruned result set is byte-identical, at every thread count
    ///
    /// Write `key(row) = (row.score, row.plan)` ([`crate::ranking::topk_key`])
    /// and `bound(p) = (p.score, p)` for plan index `p`. Every row plan `p`
    /// can emit has `key == bound(p)` exactly — the bound is admissible
    /// *and* tight — and the final sort order `(score, plan, assignment)`
    /// refines the key order, with the assignment tiebreak confined to rows
    /// of one plan.
    ///
    /// 1. **Threshold cuts are sound, regardless of plan order or timing.**
    ///    The tracker publishes `T`, the k-th smallest key among rows
    ///    collected so far, once `k` rows exist. Suppose a worker skips or
    ///    aborts plan `p` because `T < bound(p)` *strictly*. Then at that
    ///    moment `k` already-collected rows have keys `≤ T < bound(p)`;
    ///    those rows are in the final collection and sort strictly before
    ///    every row `p` could have produced. So all of `p`'s unproduced rows
    ///    would have been truncated anyway — dropping them cannot change the
    ///    kept `k`. (Rows `p` emitted *before* a mid-plan abort are kept and
    ///    are equally harmless: they also sort after those `k` rows.) The
    ///    argument uses only the keys of collected rows, so it holds under
    ///    any claim interleaving. `T` only tightens over time, so a stale
    ///    read of the published cell prunes less, never wrongly.
    /// 2. **The per-plan `k`-row limit is sound.** A claimed plan emits a
    ///    deterministic prefix of its deterministic row sequence, and the
    ///    pushed-down limit caps it at `k` rows — one plan can satisfy the
    ///    whole answer, so nothing past its first `k` rows can ever be
    ///    needed. The cap is per plan, never per pool: a global cut would
    ///    make the kept subset depend on thread scheduling.
    /// 3. **Claim-time pruning coincides with the legacy stop rule.** Plans
    ///    are claimed in ascending index order, so when plan `p` comes up
    ///    for claiming, every collected row came from a plan `< p` and has
    ///    key `< bound(p)`. Hence "`T` latched" (k rows exist) implies
    ///    "`T < bound(p)`" — the threshold cut fires exactly when the old
    ///    `emitted ≥ k` check would have stopped the claiming, and never
    ///    before the tracker has seen `k` rows. Single-threaded, a claimed
    ///    plan's own rows share its exact bound and the cut is strict, so no
    ///    mid-plan abort fires and evaluation is verbatim the legacy one.
    ///
    /// By (1) the cuts drop only truncated-anyway rows, by (2) kept plans
    /// emit the same prefixes as before, and by (3) the same plans are
    /// claimed — so the sorted, truncated result is identical with pruning
    /// on or off, for every thread count. What pruning buys is work: plans a
    /// multi-threaded run claimed eagerly are aborted at their next probe
    /// boundary instead of running to completion, and late plans are skipped
    /// with zero probes.
    ///
    /// # Errors
    /// [`XkError::WorkerPanic`] naming the plan whose evaluation
    /// panicked; this worker claims nothing further.
    fn claim_plans<E: PlanEvaluator, O: ProbeObserver>(
        &self,
        mut eval: E,
        mut sink: impl FnMut(PlanReport),
    ) -> Result<(), XkError> {
        loop {
            if self.ctl.should_stop() {
                break;
            }
            if self.tracker.is_none() && self.emitted.load(Ordering::SeqCst) >= self.limit {
                break;
            }
            let pi = self.next_plan.fetch_add(1, Ordering::SeqCst);
            let Some(plan) = self.plans.get(pi) else {
                break;
            };
            let mut report = PlanReport {
                plan: pi,
                outcome: PlanOutcome::Cut,
                rows: Vec::new(),
                stats: ExecStats::default(),
                steps: Vec::new(),
                elapsed_ns: 0,
            };
            let poll = self.tracker.as_ref().map(|t| PrunePoll {
                cell: t.cell(),
                bound: topk_key(plan.score, pi),
            });
            if poll.is_some_and(|p| p.cut()) {
                // Beaten before it started: zero probes spent. Keep
                // walking the claim sequence (cheap — one atomic and
                // one load per plan) so every plan is individually
                // checked and accounted for.
                sink(report);
                continue;
            }
            let started = O::ACTIVE.then(Instant::now);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                eval.eval::<O>(self, pi, poll, &mut report)
            }));
            report.elapsed_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            report.outcome = match caught {
                Ok(Ok(())) => PlanOutcome::Done,
                Ok(Err(EvalAbort::Deadline)) => PlanOutcome::Incomplete,
                Ok(Err(EvalAbort::Pruned)) => PlanOutcome::EarlyStopped,
                Ok(Err(EvalAbort::Fault(e))) => PlanOutcome::Fault(e),
                Err(payload) => return Err(worker_panic(pi, payload)),
            };
            self.emitted.fetch_add(report.rows.len(), Ordering::SeqCst);
            sink(report);
        }
        Ok(())
    }

    /// Runs the claim loop on `workers` workers, each with its own
    /// evaluator from `make_eval`, feeding every report to `absorb`:
    /// inline on the caller's thread — no spawn, no channel — for one
    /// worker, scoped threads sending one report per plan otherwise.
    fn fan_out<E: PlanEvaluator, O: ProbeObserver>(
        &self,
        workers: usize,
        make_eval: impl Fn() -> E + Sync,
        mut absorb: impl FnMut(PlanReport),
    ) -> Result<(), XkError> {
        if workers == 1 {
            return self.claim_plans::<E, O>(make_eval(), absorb);
        }
        let (tx, rx) = crossbeam::channel::unbounded::<PlanReport>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let make_eval = &make_eval;
                    scope.spawn(move || {
                        self.claim_plans::<E, O>(make_eval(), |report| {
                            let _ = tx.send(report);
                        })
                    })
                })
                .collect();
            drop(tx);
            rx.into_iter().for_each(&mut absorb);
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("the claim loop catches plan panics itself"))
        })
    }
}

/// Evaluates a request. Rows come back in plan order (`k: None`) or as
/// the sorted top-k; [`QueryResults::degradation`] says how a deadline
/// or unrecoverable store faults cut the answer short — rows found in
/// time are kept, not thrown away — and [`QueryResults::prune`] what the
/// top-k threshold saved. The contract is the same for every shape.
///
/// # Errors
/// [`XkError::BadMode`], [`XkError::MissingRelation`] or
/// [`XkError::ArityMismatch`] before anything is evaluated;
/// [`XkError::WorkerPanic`] when a plan's evaluation panicked;
/// [`XkError::DeadlineExceeded`] / [`XkError::Store`] when the request
/// degraded before producing any row.
pub fn execute(
    db: &Db,
    catalog: &RelationCatalog,
    req: &ExecRequest<'_>,
) -> Result<QueryResults, XkError> {
    drive::<NoProbeObs>(db, catalog, req).map(|(results, _)| results)
}

/// [`execute`] with per-probe measurement attached (EXPLAIN ANALYZE):
/// the same driver, the same rows, plus one [`PlanExecProfile`] per
/// plan, in plan order. Every plan's I/O is read off the evaluating
/// thread's own pool counters, so the profiles decompose the request's
/// attributed I/O exactly at any worker count, degraded or not.
///
/// # Errors
/// Same as [`execute`].
pub fn execute_profiled(
    db: &Db,
    catalog: &RelationCatalog,
    req: &ExecRequest<'_>,
) -> Result<(QueryResults, Vec<PlanExecProfile>), XkError> {
    drive::<StepProbeObs>(db, catalog, req)
}

fn drive<O: ProbeObserver>(
    db: &Db,
    catalog: &RelationCatalog,
    req: &ExecRequest<'_>,
) -> Result<(QueryResults, Vec<PlanExecProfile>), XkError> {
    if let Join::NestedLoop(mode) = req.join {
        validate_mode(mode)?;
    }
    let plans = req.plans;
    validate_plans(catalog, plans)?;
    let faults_before = db.faults().snapshot();
    let workers = req.threads.clamp(1, plans.len().max(1));
    let run = Run {
        db,
        catalog,
        plans,
        ctl: ExecCtl::within(req.deadline),
        limit: req.k.unwrap_or(usize::MAX),
        tracker: match req.k {
            Some(k) if req.prune && k > 0 => Some(ThresholdTracker::new(k)),
            _ => None,
        },
        emitted: AtomicUsize::new(0),
        next_plan: AtomicUsize::new(0),
    };

    let mut out = QueryResults::default();
    let mut profiles: Vec<PlanExecProfile> = Vec::new();
    if O::ACTIVE {
        // Every plan starts as a zero-I/O "never reached" entry; the
        // report of the worker that claims it overwrites that.
        profiles.extend(plans.iter().enumerate().map(|(i, p)| {
            PlanExecProfile {
                plan: i,
                score: p.score,
                drivers: p.candidates[p.driver as usize]
                    .as_ref()
                    .map_or(0, |c| c.len() as u64),
                skipped: true,
                ..PlanExecProfile::default()
            }
        }));
    }
    let mut reported = 0usize;
    let absorb = |mut report: PlanReport| {
        reported += 1;
        let pi = report.plan;
        let cut = matches!(report.outcome, PlanOutcome::Cut);
        out.prune.plans_claimed += usize::from(!cut);
        match report.outcome {
            PlanOutcome::Cut => out.prune.plans_pruned += 1,
            PlanOutcome::Done => {}
            PlanOutcome::EarlyStopped => out.prune.plans_early_stopped += 1,
            PlanOutcome::Incomplete => out.degradation.plans_incomplete += 1,
            PlanOutcome::Fault(e) => {
                out.degradation.plans_incomplete += 1;
                out.degradation.faults.push((pi, e));
            }
        }
        out.stats.merge(&report.stats);
        if let Some(p) = profiles.get_mut(pi) {
            p.skipped = false;
            p.pruned = cut;
            p.rows_out = report.rows.len() as u64;
            p.elapsed_ns = report.elapsed_ns;
            p.stats = report.stats;
            p.steps = report.steps;
        }
        out.rows.append(&mut report.rows);
    };
    match req.join {
        Join::NestedLoop(mode) if workers == 1 => run.fan_out::<_, O>(
            workers,
            || NestedLoop {
                mode,
                cache: new_cache(mode),
            },
            absorb,
        ),
        Join::NestedLoop(mode) => {
            let shared = SharedPartialCache::new(mode, workers);
            run.fan_out::<_, O>(
                workers,
                || NestedLoop {
                    mode,
                    cache: &shared,
                },
                absorb,
            )
        }
        Join::Hash if workers == 1 => {
            run.fan_out::<_, O>(workers, || HashJoin(LocalScanMemo::default()), absorb)
        }
        Join::Hash => {
            let memo = SharedScanMemo::new(workers, |_| HashMap::new());
            run.fan_out::<_, O>(workers, || HashJoin(&memo), absorb)
        }
    }?;

    // Top-k legitimately leaves plans unclaimed once it has k rows;
    // unclaimed plans count as skipped only when the deadline (not
    // success) stopped the claiming.
    let timed_out = run.ctl.timed_out();
    if timed_out {
        out.degradation.plans_skipped = plans.len() - reported;
    } else {
        // Never reached, yet no deadline: top-k had its k rows.
        for p in profiles.iter_mut().filter(|p| p.skipped) {
            p.skipped = false;
            p.pruned = true;
        }
    }
    out.degradation.deadline_exceeded = timed_out;
    out.degradation.faults.sort_by_key(|(pi, _)| *pi);
    out.degradation.retries = db.faults().snapshot().since(faults_before).retries;
    out.prune.enabled = req.prune && req.k.is_some();
    out.prune.threshold = run
        .tracker
        .as_ref()
        .and_then(ThresholdTracker::threshold)
        .map(topk_key_parts);
    match req.k {
        Some(k) => {
            out.rows.sort_by(|a, b| {
                (a.score, a.plan, &a.assignment).cmp(&(b.score, b.plan, &b.assignment))
            });
            out.rows.truncate(k);
        }
        // Workers report out of plan order; each report's rows are one
        // plan's, contiguous and in emission order, so a stable sort by
        // plan restores exactly the single-worker row sequence.
        None if workers > 1 => out.rows.sort_by_key(|r| r.plan),
        None => {}
    }
    // A deadline or fault that still yielded rows is a degraded `Ok`;
    // one that yielded nothing is a typed error.
    if out.rows.is_empty() {
        if timed_out {
            return Err(XkError::DeadlineExceeded);
        }
        if let Some((_, e)) = out.degradation.faults.first() {
            return Err(XkError::Store(e.clone()));
        }
    }
    Ok((out, profiles))
}

/// Memo key for filtered relation scans: (relation, per-column keyword
/// requirement signature).
type ScanKey = (usize, Vec<Option<String>>);

/// What the hash-join evaluator needs from a scan memo: the same
/// relation filtered the same way recurs across candidate networks, so
/// it should be scanned once per query, not once per CN — within a
/// thread (a plain map) or across worker threads (a striped map).
trait ScanMemoOps {
    fn lookup(&mut self, key: &ScanKey) -> Option<Arc<Vec<Row>>>;
    /// Stores a scan, returning the canonical copy (an already-present
    /// entry wins, so concurrent scanners converge on one allocation).
    fn store(&mut self, key: ScanKey, rows: Arc<Vec<Row>>) -> Arc<Vec<Row>>;
}

/// The single-threaded scan memo.
#[derive(Default)]
struct LocalScanMemo(HashMap<ScanKey, Arc<Vec<Row>>>);

impl ScanMemoOps for LocalScanMemo {
    fn lookup(&mut self, key: &ScanKey) -> Option<Arc<Vec<Row>>> {
        self.0.get(key).cloned()
    }

    fn store(&mut self, key: ScanKey, rows: Arc<Vec<Row>>) -> Arc<Vec<Row>> {
        self.0.entry(key).or_insert(rows).clone()
    }
}

/// A lock-striped scan memo shared by the workers of a hash request.
/// Scans run outside the shard locks, so two workers may race on the
/// same key and both pay the scan (each charges its own probe); the
/// first stored copy wins and later plans hit it.
type SharedScanMemo = Striped<HashMap<ScanKey, Arc<Vec<Row>>>>;

impl ScanMemoOps for &SharedScanMemo {
    fn lookup(&mut self, key: &ScanKey) -> Option<Arc<Vec<Row>>> {
        self.shard_of(key).lock().get(key).cloned()
    }

    fn store(&mut self, key: ScanKey, rows: Arc<Vec<Row>>) -> Arc<Vec<Row>> {
        self.shard_of(&key)
            .lock()
            .entry(key)
            .or_insert(rows)
            .clone()
    }
}

/// Evaluates one plan by hash joins into `out` (rows and stats). The
/// tile boundary is the cancellation point — scans and joins are the
/// units of work here — for the deadline and the top-k threshold alike;
/// scans that fail on unrecoverable store faults abort the plan (and are
/// never memoized).
fn hash_join_plan<M: ScanMemoOps>(
    run: &Run<'_>,
    pi: usize,
    ctl: &ProbeCtl<'_>,
    memo: &mut M,
    out: &mut PlanReport,
) -> Result<(), EvalAbort> {
    let (db, catalog, plan) = (run.db, run.catalog, &run.plans[pi]);
    let nroles = plan.role_count();
    if plan.tiles.is_empty() {
        // Single-role plan: candidates are the results.
        if let Some(c) = &plan.candidates[plan.driver as usize] {
            for to in c.iter() {
                out.stats.results += 1;
                out.rows.push(ResultRow {
                    plan: pi,
                    assignment: vec![to],
                    score: plan.score,
                });
            }
        }
        return Ok(());
    }
    // Intermediate result: rows of bound roles, tracked by role list.
    let mut bound_roles: Vec<u8> = Vec::new();
    let mut inter: Vec<Vec<ToId>> = Vec::new();
    for (i, tile) in plan.tiles.iter().enumerate() {
        if ctl.exec.should_stop() {
            return Err(EvalAbort::Deadline);
        }
        if ctl.cut() {
            return Err(EvalAbort::Pruned);
        }
        // Scan + filter the tile relation (memoized per filter).
        let filter_sig: Vec<Option<String>> = tile
            .cols_to_roles
            .iter()
            .map(|&role| {
                plan.candidates[role as usize].as_ref().map(|_| {
                    let mut reqs: Vec<String> = plan.ctssn.annotations[role as usize]
                        .iter()
                        .map(|a| format!("k{}s{}", a.set, a.schema_node.0))
                        .collect();
                    reqs.sort();
                    reqs.join(";")
                })
            })
            .collect();
        let key = (tile.rel, filter_sig);
        let scanned: Arc<Vec<Row>> = match memo.lookup(&key) {
            Some(hit) => hit,
            None => {
                let _scan_span = xkw_obs::span!("exec.scan", plan = pi, step = i, rel = tile.rel);
                out.stats.probes += 1;
                let v: Vec<Row> = catalog
                    .try_scan(db, tile.rel)
                    .map_err(EvalAbort::Fault)?
                    .into_iter()
                    .filter(|row| {
                        tile.cols_to_roles.iter().enumerate().all(|(c, &role)| {
                            plan.candidates[role as usize]
                                .as_ref()
                                .is_none_or(|cands| cands.contains(&row[c]))
                        })
                    })
                    .collect();
                out.stats.rows += v.len() as u64;
                memo.store(key, Arc::new(v))
            }
        };
        if i == 0 {
            bound_roles = tile.cols_to_roles.clone();
            inter = scanned.iter().map(|r| r.to_vec()).collect();
            continue;
        }
        let _join_span = xkw_obs::span!(
            "exec.join",
            plan = pi,
            step = i,
            rel = tile.rel,
            left_rows = inter.len(),
            right_rows = scanned.len()
        );
        // Join columns: roles shared between `bound_roles` and tile.
        let shared: Vec<(usize, usize)> = tile
            .cols_to_roles
            .iter()
            .enumerate()
            .filter_map(|(c, role)| bound_roles.iter().position(|r| r == role).map(|b| (b, c)))
            .collect();
        let mut built: HashMap<Vec<ToId>, Vec<usize>> = HashMap::new();
        for (idx, row) in inter.iter().enumerate() {
            let key: Vec<ToId> = shared.iter().map(|&(b, _)| row[b]).collect();
            built.entry(key).or_default().push(idx);
        }
        let mut next_inter: Vec<Vec<ToId>> = Vec::new();
        let new_cols: Vec<usize> = tile
            .cols_to_roles
            .iter()
            .enumerate()
            .filter(|(_, role)| !bound_roles.contains(role))
            .map(|(c, _)| c)
            .collect();
        for row in scanned.iter() {
            let key: Vec<ToId> = shared.iter().map(|&(_, c)| row[c]).collect();
            if let Some(matches) = built.get(&key) {
                for &mi in matches {
                    let mut joined = inter[mi].clone();
                    joined.extend(new_cols.iter().map(|&c| row[c]));
                    next_inter.push(joined);
                }
            }
        }
        for &c in &new_cols {
            bound_roles.push(tile.cols_to_roles[c]);
        }
        inter = next_inter;
        if inter.is_empty() {
            break;
        }
    }
    // Project to role order, enforce distinctness, emit.
    for row in inter {
        let mut assignment: Vec<Option<ToId>> = vec![None; nroles];
        for (b, &role) in bound_roles.iter().enumerate() {
            assignment[role as usize] = Some(row[b]);
        }
        if !check_distinct(plan, &assignment) {
            continue;
        }
        out.stats.results += 1;
        out.rows.push(ResultRow {
            plan: pi,
            assignment: assignment.iter().map(|a| a.unwrap()).collect(),
            score: plan.score,
        });
    }
    Ok(())
}

/// Validates an execution mode — the one inexpressible-but-representable
/// configuration is a "cached" mode whose cache can hold nothing.
///
/// # Errors
/// [`XkError::BadMode`] for `Cached { capacity: 0 }`.
pub fn validate_mode(mode: ExecMode) -> Result<(), XkError> {
    match mode {
        ExecMode::Cached { capacity: 0 } => Err(XkError::BadMode(
            "cached execution needs a nonzero cache capacity (use Naive instead)".to_owned(),
        )),
        _ => Ok(()),
    }
}

/// Validates that every plan only references connection relations the
/// catalog holds, with column maps matching their arity.
///
/// # Errors
/// [`XkError::MissingRelation`] or [`XkError::ArityMismatch`].
pub fn validate_plans(catalog: &RelationCatalog, plans: &[CtssnPlan]) -> Result<(), XkError> {
    for plan in plans {
        for tile in &plan.tiles {
            if tile.rel >= catalog.len() {
                return Err(XkError::MissingRelation {
                    index: tile.rel,
                    len: catalog.len(),
                });
            }
            let arity = catalog.relation(tile.rel).copies[0].arity();
            if tile.cols_to_roles.len() != arity {
                return Err(XkError::ArityMismatch {
                    relation: tile.rel,
                    expected: arity,
                    got: tile.cols_to_roles.len(),
                });
            }
        }
    }
    Ok(())
}

/// [`execute`] for nested-loop top-k, spelled positionally.
/// Kept for `benchmark/`; remove with the next benchmark re-baseline.
///
/// # Errors
/// Same as [`execute`].
#[allow(clippy::too_many_arguments)]
pub fn try_topk_within_opts(
    db: &Db,
    catalog: &RelationCatalog,
    plans: &[CtssnPlan],
    mode: ExecMode,
    k: usize,
    threads: usize,
    deadline: Option<Duration>,
    prune: bool,
) -> Result<QueryResults, XkError> {
    let req = ExecRequest {
        plans,
        join: Join::NestedLoop(mode),
        k: Some(k),
        prune,
        threads,
        deadline,
    };
    execute(db, catalog, &req)
}

/// [`execute`] for single-worker nested-loop enumeration.
/// Kept for `benchmark/`; remove with the next benchmark re-baseline.
///
/// # Errors
/// Same as [`execute`].
pub fn try_all_plans(
    db: &Db,
    catalog: &RelationCatalog,
    plans: &[CtssnPlan],
    mode: ExecMode,
) -> Result<QueryResults, XkError> {
    execute(
        db,
        catalog,
        &ExecRequest::all(plans, Join::NestedLoop(mode)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::CnGenerator;
    use crate::ctssn::Ctssn;
    use crate::decompose;
    use crate::master_index::MasterIndex;
    use crate::optimizer::{build_plan, build_plan_anchored};
    use crate::relations::{PhysicalPolicy, RelationCatalog};
    use crate::semantics::enumerate_mttons;
    use crate::target::TargetGraph;
    use xkw_datagen::tpch;

    struct Fixture {
        graph: xkw_graph::XmlGraph,
        tss: xkw_graph::TssGraph,
        targets: TargetGraph,
        master: MasterIndex,
        db: Db,
        catalog: RelationCatalog,
    }

    fn fixture(decomp: decompose::Decomposition, policy: PhysicalPolicy) -> Fixture {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Db::new(256);
        let catalog = RelationCatalog::materialize(&db, &targets, decomp, policy, "t");
        Fixture {
            graph,
            tss,
            targets,
            master,
            db,
            catalog,
        }
    }

    fn minimal_clustered() -> Fixture {
        fixture(
            decompose::minimal(&tpch::tss_graph()),
            PhysicalPolicy::clustered(),
        )
    }

    fn plans_for(f: &Fixture, keywords: &[&str], z: usize) -> Vec<CtssnPlan> {
        let achievable = f.master.achievable_sets(keywords);
        let gen = CnGenerator::new(f.tss.schema(), &achievable, keywords.len());
        gen.generate(z)
            .iter()
            .map(|cn| Ctssn::from_cn(cn, &f.tss).unwrap())
            .filter_map(|c| build_plan(&c, &f.catalog, &f.master, keywords))
            .collect()
    }

    const NAIVE: Join = Join::NestedLoop(ExecMode::Naive);
    const CACHED: Join = Join::NestedLoop(ExecMode::Cached { capacity: 1024 });

    /// Every plan to completion, single worker.
    fn all(f: &Fixture, plans: &[CtssnPlan], join: Join) -> QueryResults {
        execute(&f.db, &f.catalog, &ExecRequest::all(plans, join)).unwrap()
    }

    fn sorted(mut rows: Vec<ResultRow>) -> Vec<ResultRow> {
        rows.sort_by(|a, b| {
            (a.score, a.plan, &a.assignment).cmp(&(b.score, b.plan, &b.assignment))
        });
        rows
    }

    /// Every `{join, k, prune, threads, profiled}` shape, on one
    /// instance per physical policy. Enumeration cells equal the
    /// brute-force MTTON oracle; top-k cells equal that same enumeration
    /// sorted by `(score, plan, assignment)` and truncated; every cell of
    /// one `(join, k)` returns byte-identical rows whatever the prune
    /// flag, worker count or profiling; and every profiled cell's
    /// per-plan profiles decompose the request's attributed I/O exactly.
    #[test]
    fn every_request_shape_matches_the_brute_force_oracle() {
        let tss = tpch::tss_graph();
        for policy in [PhysicalPolicy::clustered(), PhysicalPolicy::bare()] {
            let f = fixture(decompose::minimal(&tss), policy);
            for kws in [
                ["john", "vcr"],
                ["tv", "vcr"],
                ["us", "vcr"],
                ["john", "tv"],
            ] {
                let plans = plans_for(&f, &kws, 8);
                let oracle = enumerate_mttons(&f.graph, &f.targets, &kws, 8);
                let naive_probes = all(&f, &plans, NAIVE).stats.probes;
                for join in [NAIVE, CACHED, Join::Hash] {
                    let full = all(&f, &plans, join);
                    assert_eq!(full.mttons(), oracle, "{kws:?} {join:?}");
                    for k in [None, Some(1), Some(10)] {
                        let want = match k {
                            None => full.rows.clone(),
                            Some(k) => {
                                let mut top = sorted(full.rows.clone());
                                top.truncate(k);
                                top
                            }
                        };
                        for prune in [true, false] {
                            for threads in [1, 2, 8] {
                                for profiled in [false, true] {
                                    let req = ExecRequest {
                                        plans: &plans,
                                        join,
                                        k,
                                        prune,
                                        threads,
                                        deadline: None,
                                    };
                                    let tag = format!(
                                        "{kws:?} {join:?} k={k:?} prune={prune} \
                                         threads={threads} profiled={profiled}"
                                    );
                                    let (res, profiles) = if profiled {
                                        execute_profiled(&f.db, &f.catalog, &req).unwrap()
                                    } else {
                                        (execute(&f.db, &f.catalog, &req).unwrap(), Vec::new())
                                    };
                                    assert_eq!(res.rows, want, "{tag}");
                                    assert!(!res.degradation.is_degraded(), "{tag}");
                                    assert_eq!(res.prune.enabled, prune && k.is_some(), "{tag}");
                                    check_stats(&res, &req, naive_probes, &tag);
                                    if profiled {
                                        check_profiles(&res, &profiles, &req, &tag);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The logical-work counters of one lattice cell.
    fn check_stats(res: &QueryResults, req: &ExecRequest<'_>, naive_probes: u64, tag: &str) {
        let s = &res.stats;
        assert!(s.results as usize >= res.rows.len(), "{tag}");
        if res.rows.is_empty() {
            return;
        }
        assert!(s.probes > 0, "{tag}");
        assert!(s.io_hits + s.io_misses > 0, "I/O is attributed: {tag}");
        match req.join {
            Join::NestedLoop(ExecMode::Naive) => assert_eq!(s.cache_hits, 0, "{tag}"),
            Join::NestedLoop(ExecMode::Cached { .. }) if req.k.is_none() => {
                assert_eq!(s.results as usize, res.rows.len(), "{tag}");
                // Suffixes recur across CNs: the cache (private or
                // striped across workers) sees hits, and caching never
                // adds probes on the MVD-redundant data.
                assert!(s.cache_hits > 0, "{tag}");
                assert!(s.probes <= naive_probes, "{tag}");
            }
            _ => {}
        }
    }

    /// The EXPLAIN accounting invariants of one profiled lattice cell.
    fn check_profiles(
        res: &QueryResults,
        profiles: &[PlanExecProfile],
        req: &ExecRequest<'_>,
        tag: &str,
    ) {
        assert_eq!(profiles.len(), req.plans.len(), "{tag}");
        let mut io = (0, 0);
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!((p.plan, p.score), (i, req.plans[i].score), "{tag}");
            assert!(!p.skipped, "no deadline, nothing skipped: {tag}");
            if p.pruned {
                assert_eq!((p.stats, p.rows_out), (ExecStats::default(), 0), "{tag}");
            }
            match req.join {
                Join::NestedLoop(_) if !p.pruned => {
                    assert_eq!(p.steps.len(), req.plans[i].tiles.len(), "{tag}");
                    let step_io = p
                        .steps
                        .iter()
                        .fold((0, 0), |(h, m), s| (h + s.io_hits, m + s.io_misses));
                    assert_eq!(
                        step_io,
                        (p.stats.io_hits, p.stats.io_misses),
                        "plan {i} {tag}"
                    );
                }
                _ => assert!(p.steps.is_empty(), "{tag}"),
            }
            io = (io.0 + p.stats.io_hits, io.1 + p.stats.io_misses);
        }
        assert_eq!(io, (res.stats.io_hits, res.stats.io_misses), "{tag}");
        let rows_out: u64 = profiles.iter().map(|p| p.rows_out).sum();
        assert!(rows_out as usize >= res.rows.len(), "{tag}");
        let pruned = profiles.iter().filter(|p| p.pruned).count();
        let claimed = res.prune.plans_claimed;
        assert_eq!(pruned + claimed, req.plans.len(), "{tag}");
        if res.prune.enabled {
            assert_eq!(pruned, res.prune.plans_pruned, "{tag}");
        }
    }

    /// A plan whose evaluation panics surfaces as a typed error naming
    /// it — from the inline worker and from pool workers, for both joins,
    /// with or without `k`, profiled or not.
    #[test]
    fn plan_panics_become_typed_errors_in_every_shape() {
        let f = minimal_clustered();
        let mut plans = plans_for(&f, &["us", "vcr"], 8);
        // Sabotage the last joining plan with a role beyond its role
        // count: passes validation (arity is intact), then indexes out of
        // bounds in either evaluator.
        let target = plans
            .iter()
            .rposition(|p| !p.tiles.is_empty())
            .expect("a joining plan");
        plans[target].tiles[0].cols_to_roles[0] = 200;
        for join in [NAIVE, CACHED, Join::Hash] {
            // k large enough to reach the sabotaged plan.
            for k in [None, Some(100_000)] {
                for threads in [1, 2] {
                    for profiled in [false, true] {
                        let req = ExecRequest {
                            plans: &plans,
                            join,
                            k,
                            prune: true,
                            threads,
                            deadline: None,
                        };
                        let err = if profiled {
                            execute_profiled(&f.db, &f.catalog, &req).map(drop)
                        } else {
                            execute(&f.db, &f.catalog, &req).map(drop)
                        }
                        .unwrap_err();
                        assert!(
                            matches!(err, XkError::WorkerPanic { plan: Some(p), .. } if p == target),
                            "{join:?} k={k:?} threads={threads} profiled={profiled}: {err:?}"
                        );
                        assert!(err.to_string().contains("worker thread panicked"));
                        assert!(err.to_string().contains(&format!("plan {target}")));
                    }
                }
            }
        }
    }

    #[test]
    fn complete_decomposition_same_results_fewer_joins() {
        let tss = tpch::tss_graph();
        let f_min = minimal_clustered();
        let f_com = fixture(decompose::complete(&tss, 2), PhysicalPolicy::clustered());
        let kws = ["tv", "vcr"];
        let p_min = plans_for(&f_min, &kws, 8);
        let p_com = plans_for(&f_com, &kws, 8);
        assert_eq!(
            all(&f_min, &p_min, NAIVE).mttons(),
            all(&f_com, &p_com, NAIVE).mttons()
        );
        let joins_min: usize = p_min.iter().map(CtssnPlan::joins).sum();
        let joins_com: usize = p_com.iter().map(CtssnPlan::joins).sum();
        assert!(joins_com < joins_min);
    }

    #[test]
    fn figure2_redundancy_counted() {
        // "US, VCR" on the Fig. 2 subgraph: the supplier-route CN yields
        // exactly the 4 results N1..N4.
        let f = minimal_clustered();
        let plans = plans_for(&f, &["us", "vcr"], 8);
        let res = all(&f, &plans, NAIVE);
        let li = f
            .tss
            .node_ids()
            .find(|&i| f.tss.node(i).name == "Lineitem")
            .unwrap();
        let person = f
            .tss
            .node_ids()
            .find(|&i| f.tss.node(i).name == "Person")
            .unwrap();
        let lp = f.tss.find_edge(li, person).unwrap();
        let counts: usize = res
            .rows
            .iter()
            .filter(|r| {
                let p = &plans[r.plan];
                p.ctssn.tree.edges.iter().any(|e| e.edge == lp) && p.ctssn.size() == 3
            })
            .count();
        assert_eq!(counts, 4, "N1..N4 of Figure 2");
    }

    #[test]
    fn cache_capacity_one_still_correct() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["john", "vcr"], 8);
        let tiny = all(
            &f,
            &plans,
            Join::NestedLoop(ExecMode::Cached { capacity: 1 }),
        );
        assert_eq!(tiny.mttons(), all(&f, &plans, NAIVE).mttons());
    }

    /// The degenerate `k`s and worker counts: top-0 is empty (and says
    /// whether pruning was requested, like every other `k`), a `k` past
    /// the total returns everything, and more workers than plans is
    /// clamped, on every join.
    #[test]
    fn degenerate_k_and_worker_counts() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["john", "vcr"], 8);
        for join in [NAIVE, CACHED, Join::Hash] {
            let total = all(&f, &plans, join).rows.len();
            assert!(total > 5);
            for prune in [true, false] {
                for (k, threads, want) in [(0, 2, 0), (10_000, 3, total), (5, 64, 5)] {
                    let req = ExecRequest {
                        prune,
                        threads,
                        ..ExecRequest::topk(&plans, join, k)
                    };
                    let res = execute(&f.db, &f.catalog, &req).unwrap();
                    assert_eq!(res.rows.len(), want, "{join:?} k={k} prune={prune}");
                    let (profiled, profiles) = execute_profiled(&f.db, &f.catalog, &req).unwrap();
                    assert_eq!(profiled.rows, res.rows);
                    assert_eq!(profiled.prune.enabled, prune);
                    assert_eq!(res.prune.enabled, prune);
                    assert_eq!(profiles.len(), plans.len());
                }
            }
        }
    }

    #[test]
    fn empty_plan_list_is_fine_everywhere() {
        let f = minimal_clustered();
        for join in [NAIVE, Join::Hash] {
            for k in [None, Some(5)] {
                let req = ExecRequest {
                    k,
                    threads: 2,
                    ..ExecRequest::all(&[], join)
                };
                assert!(execute(&f.db, &f.catalog, &req).unwrap().rows.is_empty());
                let (res, profiles) = execute_profiled(&f.db, &f.catalog, &req).unwrap();
                assert!(res.rows.is_empty() && profiles.is_empty());
            }
        }
        assert!(ResultStream::new(&f.db, &f.catalog, &[], ExecMode::Naive)
            .next()
            .is_none());
    }

    /// Validation runs once, inside the driver, before anything is
    /// evaluated — whatever the shape.
    #[test]
    fn every_shape_rejects_bad_inputs() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["john", "vcr"], 8);
        // A plan referencing a relation beyond the catalog.
        let mut broken = plans.clone();
        broken[0].tiles[0].rel = 999;
        // A plan whose column map does not match the relation's arity.
        let mut wide = plans.clone();
        wide[0].tiles[0].cols_to_roles.push(0);
        let zero_cache = Join::NestedLoop(ExecMode::Cached { capacity: 0 });
        for k in [None, Some(3)] {
            for threads in [1, 2] {
                let run = |plans: &[CtssnPlan], join| {
                    let req = ExecRequest {
                        k,
                        threads,
                        ..ExecRequest::all(plans, join)
                    };
                    let plain = execute(&f.db, &f.catalog, &req).map(|r| r.rows);
                    let profiled = execute_profiled(&f.db, &f.catalog, &req).map(|(r, _)| r.rows);
                    assert_eq!(plain, profiled);
                    plain
                };
                assert!(matches!(run(&plans, zero_cache), Err(XkError::BadMode(_))));
                for join in [NAIVE, Join::Hash] {
                    assert!(matches!(
                        run(&broken, join),
                        Err(XkError::MissingRelation { index: 999, .. })
                    ));
                    assert!(matches!(
                        run(&wide, join),
                        Err(XkError::ArityMismatch { .. })
                    ));
                    // Valid input still evaluates.
                    assert!(!run(&plans, join).unwrap().is_empty());
                }
            }
        }
    }

    #[test]
    fn eval_anchored_rejects_non_candidates() {
        let f = minimal_clustered();
        let kws = ["john", "vcr"];
        // Anchor at the driver (annotated) role with a TO that is not a
        // candidate: must produce nothing, not crash.
        let plan = &plans_for(&f, &kws, 8)[0];
        let anchored =
            build_plan_anchored(&plan.ctssn, &f.catalog, &f.master, &kws, plan.driver).unwrap();
        let bogus: ToId = 9999;
        let mut cache = PartialCache::new(16);
        let mut stats = ExecStats::default();
        let mut count = 0;
        let _ = eval_anchored(
            &f.db,
            &f.catalog,
            &anchored,
            bogus,
            ExecMode::Naive,
            &mut cache,
            &mut stats,
            &mut |_| {
                count += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(count, 0);
        assert_eq!(stats.probes, 0);
    }

    // ---- ResultStream ---------------------------------------------------

    #[test]
    fn stream_yields_exactly_the_batch_results() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["us", "vcr"], 8);
        let mode = ExecMode::Cached { capacity: 1024 };
        let streamed: Vec<ResultRow> = ResultStream::new(&f.db, &f.catalog, &plans, mode).collect();
        let mut a: Vec<Mtton> = all(&f, &plans, CACHED)
            .rows
            .iter()
            .map(ResultRow::to_mtton)
            .collect();
        let mut b: Vec<Mtton> = streamed.iter().map(ResultRow::to_mtton).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn pages_are_disjoint_and_ordered_by_plan() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["us", "vcr"], 8);
        let mut stream = ResultStream::new(&f.db, &f.catalog, &plans, ExecMode::Naive);
        let p1 = stream.page(3);
        let p2 = stream.page(3);
        assert_eq!(p1.len(), 3);
        assert!(!p2.is_empty());
        for a in &p1 {
            for b in &p2 {
                assert_ne!((a.plan, &a.assignment), (b.plan, &b.assignment));
            }
        }
        // Plan indexes never decrease across the stream.
        let all: Vec<ResultRow> = p1.into_iter().chain(p2).chain(stream).collect();
        assert!(all.windows(2).all(|w| w[0].plan <= w[1].plan));
    }

    #[test]
    fn early_pages_cost_less_than_full_evaluation() {
        let f = minimal_clustered();
        let plans = plans_for(&f, &["us", "vcr"], 8);
        let mut stream = ResultStream::new(
            &f.db,
            &f.catalog,
            &plans,
            ExecMode::Cached { capacity: 1024 },
        );
        let _first = stream.page(2);
        let early_probes = stream.stats().probes;
        let _rest: Vec<_> = stream.by_ref().collect();
        assert!(early_probes < stream.stats().probes);
    }
}

#[cfg(test)]
mod session_budget_tests {
    use super::*;

    #[test]
    fn unlimited_budget_passes_deadlines_through() {
        let b = SessionBudget::unlimited();
        assert_eq!(b.remaining(), None);
        assert!(!b.exhausted());
        assert_eq!(b.clamp(None), None);
        let req = Duration::from_millis(250);
        assert_eq!(b.clamp(Some(req)), Some(req));
        b.charge(Duration::from_secs(3600));
        assert_eq!(b.remaining(), None, "unlimited sessions never drain");
    }

    #[test]
    fn clamp_takes_the_tighter_of_request_and_remaining() {
        let b = SessionBudget::new(Duration::from_millis(100));
        // A generous request is capped by the budget.
        assert_eq!(
            b.clamp(Some(Duration::from_secs(5))),
            Some(Duration::from_millis(100))
        );
        // A tight request passes through.
        assert_eq!(
            b.clamp(Some(Duration::from_millis(10))),
            Some(Duration::from_millis(10))
        );
        // No request at all still gets the session cap.
        assert_eq!(b.clamp(None), Some(Duration::from_millis(100)));
    }

    #[test]
    fn charge_drains_to_zero_and_saturates() {
        let b = SessionBudget::new(Duration::from_millis(100));
        b.charge(Duration::from_millis(60));
        assert_eq!(b.remaining(), Some(Duration::from_millis(40)));
        assert!(!b.exhausted());
        // Overshoot saturates instead of wrapping.
        b.charge(Duration::from_millis(500));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        assert!(b.exhausted());
        assert_eq!(b.clamp(Some(Duration::from_secs(1))), Some(Duration::ZERO));
    }

    #[test]
    fn near_max_totals_do_not_overflow() {
        let b = SessionBudget::new(Duration::from_secs(u64::MAX / 2));
        // as_nanos overflows u64 here; the constructor saturates to the
        // unlimited sentinel rather than truncating to a tiny budget.
        assert_eq!(b.remaining(), None);
    }
}
