//! Ranking extensions beyond tree size (§8 future work).
//!
//! The paper ranks results purely by MTNN size and closes with: *"we plan
//! to look into different semantics for keyword queries … going beyond
//! the distance between keywords."* This module implements the natural
//! next step from the IR lineage the paper builds on:
//!
//! * [`IdfWeights`] — per-keyword inverse document frequency over target
//!   objects, so rare keywords contribute more than common ones;
//! * [`RankedResult`] / [`rank`] — combines proximity (the paper's size
//!   score) with keyword specificity into a single relevance score
//!   `Σ idf(k) / (1 + size)`, preserving the paper's ordering for
//!   equal-specificity queries (monotone decreasing in size);
//! * edge-type weighting ([`RankingConfig::reference_penalty`]): IDREF
//!   hops may be counted heavier than containment hops, a knob the
//!   paper's related work (BANKS) motivates.
//!
//! Everything here is additive — the §3.1 semantics and result sets are
//! untouched; only the presentation order changes.

use crate::exec::ResultRow;
use crate::master_index::MasterIndex;
use crate::optimizer::CtssnPlan;
use crate::target::TargetGraph;
use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use xkw_graph::EdgeKind;

/// Sentinel published by a [`ThresholdTracker`] before `k` rows have
/// been observed: larger than every real [`topk_key`], so a threshold
/// comparison against it never prunes.
pub const THRESHOLD_UNSET: u64 = u64::MAX;

/// Packs a result's `(score, plan)` pair into one totally-ordered `u64`,
/// matching the lexicographic `(score, plan, assignment)` order the
/// top-k executor sorts by — for any two rows from *different* plans,
/// comparing keys is exactly comparing their final sort positions (the
/// assignment tiebreak only matters within one plan). Every row a plan
/// can produce has the same key, so a plan's key doubles as an
/// *admissible and tight* lower bound on its rows' sort positions.
pub fn topk_key(score: usize, plan: usize) -> u64 {
    debug_assert!(score < (1 << 31), "score out of key range");
    debug_assert!(plan < (1 << 32), "plan index out of key range");
    ((score as u64) << 32) | plan as u64
}

/// Splits a [`topk_key`] back into `(score, plan)`.
pub fn topk_key_parts(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize)
}

/// The shared top-k threshold: tracks the k-th smallest [`topk_key`]
/// among all rows observed so far and publishes it through a lock-free
/// cell once `k` rows exist. Workers poll the cell with one relaxed
/// load per probe; the heap lock is only taken on row emission (rare
/// next to probes).
///
/// Any published value is a genuine k-th-smallest-so-far at some moment,
/// and published values only decrease over time — so a stale read is
/// merely *conservative* (prunes less), never wrong. That is why
/// `Relaxed` ordering suffices.
#[derive(Debug)]
pub struct ThresholdTracker {
    k: usize,
    /// Max-heap of the k smallest keys observed so far.
    heap: Mutex<BinaryHeap<u64>>,
    /// The published threshold ([`THRESHOLD_UNSET`] until k rows exist).
    cell: AtomicU64,
}

impl ThresholdTracker {
    /// A tracker for a top-`k` query (`k > 0`).
    pub fn new(k: usize) -> Self {
        debug_assert!(k > 0, "a top-0 query has nothing to track");
        ThresholdTracker {
            k,
            heap: Mutex::new(BinaryHeap::with_capacity(k + 1)),
            cell: AtomicU64::new(THRESHOLD_UNSET),
        }
    }

    /// Observes one emitted row's key, publishing the new k-th-smallest
    /// when it changes.
    pub fn observe(&self, key: u64) {
        let mut heap = self.heap.lock();
        if heap.len() < self.k {
            heap.push(key);
        } else if heap.peek().is_some_and(|&max| key < max) {
            heap.pop();
            heap.push(key);
        } else {
            // Not among the k smallest — the threshold is unchanged.
            return;
        }
        if heap.len() == self.k {
            if let Some(&max) = heap.peek() {
                self.cell.store(max, Ordering::Relaxed);
            }
        }
    }

    /// The cell workers poll (holds [`THRESHOLD_UNSET`] until latched).
    pub fn cell(&self) -> &AtomicU64 {
        &self.cell
    }

    /// The latched threshold key, if `k` rows have been observed.
    pub fn threshold(&self) -> Option<u64> {
        let v = self.cell.load(Ordering::Relaxed);
        (v != THRESHOLD_UNSET).then_some(v)
    }
}

/// Per-keyword IDF weights over the target-object collection.
#[derive(Debug, Clone)]
pub struct IdfWeights {
    weights: Vec<f64>,
}

impl IdfWeights {
    /// Computes `idf(k) = ln(1 + N / df(k))` where `N` is the number of
    /// target objects and `df(k)` the number containing `k`.
    pub fn compute(master: &MasterIndex, targets: &TargetGraph, keywords: &[&str]) -> Self {
        let n = targets.len().max(1) as f64;
        let weights = keywords
            .iter()
            .map(|k| {
                // Containing lists are sorted by target object, so df is
                // a run count — no hash set needed.
                let mut df = 0usize;
                let mut prev = None;
                for p in master.containing_list(k) {
                    if prev != Some(p.to) {
                        df += 1;
                        prev = Some(p.to);
                    }
                }
                (1.0 + n / (df.max(1) as f64)).ln()
            })
            .collect();
        IdfWeights { weights }
    }

    /// The weight of keyword `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sum of all keyword weights.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// Knobs for the combined score.
#[derive(Debug, Clone, Copy)]
pub struct RankingConfig {
    /// Extra edge-count charged per reference (IDREF) hop on top of the
    /// containment cost of 1.0. The paper treats both as 1; BANKS-style
    /// systems charge references more.
    pub reference_penalty: f64,
}

impl Default for RankingConfig {
    fn default() -> Self {
        RankingConfig {
            reference_penalty: 0.0,
        }
    }
}

/// A result with its combined relevance score (higher is better).
#[derive(Debug, Clone)]
pub struct RankedResult {
    /// The underlying result.
    pub row: ResultRow,
    /// The weighted size (proximity with edge-type penalties).
    pub weighted_size: f64,
    /// The combined relevance `Σ idf / (1 + weighted size)`.
    pub relevance: f64,
}

/// Weighted size of a result: the CN size plus the reference penalty for
/// every reference-kind TSS edge of its network.
pub fn weighted_size(plan: &CtssnPlan, tss: &xkw_graph::TssGraph, config: &RankingConfig) -> f64 {
    let ref_edges = plan
        .ctssn
        .tree
        .edges
        .iter()
        .filter(|e| tss.edge(e.edge).kind == EdgeKind::Reference)
        .count();
    plan.score as f64 + config.reference_penalty * ref_edges as f64
}

/// Ranks rows by combined relevance, descending; ties broken by the
/// paper's size order, then deterministically by assignment.
pub fn rank(
    rows: Vec<ResultRow>,
    plans: &[CtssnPlan],
    tss: &xkw_graph::TssGraph,
    idf: &IdfWeights,
    config: &RankingConfig,
) -> Vec<RankedResult> {
    let total_idf = idf.total();
    let mut out: Vec<RankedResult> = rows
        .into_iter()
        .map(|row| {
            let ws = weighted_size(&plans[row.plan], tss, config);
            RankedResult {
                weighted_size: ws,
                relevance: total_idf / (1.0 + ws),
                row,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.relevance
            .partial_cmp(&a.relevance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.row.score.cmp(&b.row.score))
            .then(a.row.assignment.cmp(&b.row.assignment))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QuerySpec;
    use crate::exec::ExecMode;
    use crate::xkeyword::{DecompositionSpec, LoadOptions, XKeyword};
    use xkw_datagen::tpch;

    fn load() -> XKeyword {
        let (graph, _, _) = tpch::figure1();
        XKeyword::load(
            graph,
            tpch::tss_graph(),
            LoadOptions {
                decomposition: DecompositionSpec::Minimal,
                ..LoadOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn topk_key_orders_like_the_final_sort() {
        // (score, plan) pairs in lexicographic order map to ascending keys.
        let pairs = [(0, 0), (0, 1), (1, 0), (1, 7), (2, 3), (6, 0), (6, 1)];
        let keys: Vec<u64> = pairs.iter().map(|&(s, p)| topk_key(s, p)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        for (&(s, p), &k) in pairs.iter().zip(&keys) {
            assert_eq!(topk_key_parts(k), (s, p));
            assert!(k < THRESHOLD_UNSET);
        }
    }

    #[test]
    fn threshold_tracker_latches_the_kth_smallest() {
        let t = ThresholdTracker::new(2);
        assert_eq!(t.threshold(), None);
        t.observe(topk_key(5, 0));
        assert_eq!(t.threshold(), None, "one row cannot latch a top-2");
        t.observe(topk_key(7, 1));
        assert_eq!(t.threshold(), Some(topk_key(7, 1)));
        // A larger key leaves the threshold alone.
        t.observe(topk_key(9, 2));
        assert_eq!(t.threshold(), Some(topk_key(7, 1)));
        // A smaller key tightens it (monotone non-increasing).
        t.observe(topk_key(3, 0));
        assert_eq!(t.threshold(), Some(topk_key(5, 0)));
    }

    #[test]
    fn idf_prefers_rare_keywords() {
        let xk = load();
        // "john" appears once; "us" appears in both persons' nations.
        let idf = IdfWeights::compute(&xk.master(), &xk.targets(), &["john", "us"]);
        assert!(idf.weight(0) > idf.weight(1));
        assert!(idf.total() > 0.0);
    }

    #[test]
    fn default_ranking_preserves_size_order() {
        let xk = load();
        let kws = ["john", "vcr"];
        let plans = xk.plans(&kws, 8);
        let res = xk
            .engine()
            .query(&QuerySpec::all(
                &kws,
                8,
                ExecMode::Cached { capacity: 1024 },
            ))
            .unwrap()
            .results;
        let idf = IdfWeights::compute(&xk.master(), &xk.targets(), &kws);
        let ranked = rank(
            res.rows.clone(),
            &plans,
            &xk.tss,
            &idf,
            &RankingConfig::default(),
        );
        assert_eq!(ranked.len(), res.rows.len());
        // With zero reference penalty, relevance is monotone in size.
        for w in ranked.windows(2) {
            assert!(w[0].row.score <= w[1].row.score);
        }
        assert_eq!(ranked[0].row.score, 6);
    }

    #[test]
    fn reference_penalty_demotes_idref_heavy_results() {
        let xk = load();
        let kws = ["tv", "vcr"];
        let plans = xk.plans(&kws, 8);
        let res = xk
            .engine()
            .query(&QuerySpec::all(
                &kws,
                8,
                ExecMode::Cached { capacity: 1024 },
            ))
            .unwrap()
            .results;
        let idf = IdfWeights::compute(&xk.master(), &xk.targets(), &kws);
        let neutral = rank(
            res.rows.clone(),
            &plans,
            &xk.tss,
            &idf,
            &RankingConfig::default(),
        );
        let penalized = rank(
            res.rows.clone(),
            &plans,
            &xk.tss,
            &idf,
            &RankingConfig {
                reference_penalty: 2.0,
            },
        );
        // Same result multiset, possibly different order; weighted sizes
        // strictly grow for results using reference edges.
        assert_eq!(neutral.len(), penalized.len());
        for r in &penalized {
            let refs = plans[r.row.plan]
                .ctssn
                .tree
                .edges
                .iter()
                .filter(|e| xk.tss.edge(e.edge).kind == xkw_graph::EdgeKind::Reference)
                .count();
            let expect = r.row.score as f64 + 2.0 * refs as f64;
            assert!((r.weighted_size - expect).abs() < 1e-9);
            if refs > 0 {
                assert!(r.weighted_size > r.row.score as f64);
            }
        }
    }
}
