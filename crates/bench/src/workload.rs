//! Workload construction shared by the Criterion benches and the
//! `experiments` binary.
//!
//! §7 setup: DBLP-like data (citations averaging 20/paper), `Z = 8`, two
//! keywords, `M = f(8) = 6`, `B = 2`, `L = 2`. The five decomposition
//! configurations compared in Fig. 15 map onto [`Config`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xkw_core::ctssn::Ctssn;
use xkw_core::exec::{self, ExecMode};
use xkw_core::optimizer::{build_plan, CtssnPlan};
use xkw_core::prelude::*;
use xkw_core::relations::PhysicalPolicy;
use xkw_core::xkeyword::DecompositionSpec;
use xkw_datagen::dblp::{self, DblpConfig};

/// The §7 evaluation parameters.
pub const Z: usize = 8;
/// Maximum CTSSN size (`M = f(Z) = 6` for the DBLP TSS graph).
pub const M: usize = 6;
/// Maximum joins per CTSSN.
pub const B: usize = 2;

/// The five §7 decomposition configurations (plus the on-demand
/// combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Fig. 12 inlined decomposition, clustered in every direction.
    XKeyword,
    /// All fragments of size ≤ L, clustered.
    Complete,
    /// Minimal decomposition with all clusterings.
    MinClust,
    /// Minimal decomposition, heap + single-attribute indexes.
    MinNClustIndx,
    /// Minimal decomposition, bare heap.
    MinNClustNIndx,
    /// XKeyword ∪ Minimal (for on-demand presentation-graph expansion).
    Combined,
}

impl Config {
    /// All five Fig. 15 configurations.
    pub const FIG15: [Config; 5] = [
        Config::XKeyword,
        Config::Complete,
        Config::MinClust,
        Config::MinNClustIndx,
        Config::MinNClustNIndx,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Config::XKeyword => "XKeyword",
            Config::Complete => "Complete",
            Config::MinClust => "MinClust",
            Config::MinNClustIndx => "MinNClustIndx",
            Config::MinNClustNIndx => "MinNClustNIndx",
            Config::Combined => "Combined",
        }
    }

    /// Load options for this configuration.
    pub fn load_options(&self) -> LoadOptions {
        let (decomposition, policy) = match self {
            Config::XKeyword => (
                DecompositionSpec::XKeyword { m: M, b: B },
                PhysicalPolicy::clustered(),
            ),
            Config::Complete => (
                DecompositionSpec::Complete { l: 2 },
                PhysicalPolicy::clustered(),
            ),
            Config::MinClust => (DecompositionSpec::Minimal, PhysicalPolicy::clustered()),
            Config::MinNClustIndx => (DecompositionSpec::Minimal, PhysicalPolicy::indexed()),
            Config::MinNClustNIndx => (DecompositionSpec::Minimal, PhysicalPolicy::bare()),
            Config::Combined => (
                DecompositionSpec::Combined { m: M, b: B },
                PhysicalPolicy::clustered(),
            ),
        };
        LoadOptions {
            decomposition,
            policy,
            pool_pages: 2048,
            build_blobs: false,
            ..LoadOptions::default()
        }
    }
}

/// The default bench-scale DBLP configuration. The paper's DBLP had ~20
/// citations/paper at 100k+ papers; full-results enumeration is
/// exponential in the citation fan-out (a size-6 CTSSN touches fan^5
/// paths), so the bench scale uses fan-out 6 over ~750 papers to keep
/// every figure's sweep within CI budgets while preserving the access
/// path and redundancy structure.
pub fn bench_dblp_config() -> DblpConfig {
    DblpConfig {
        conferences: 5,
        years_per_conference: 5,
        papers_per_year: 30,
        authors: 250,
        authors_per_paper: 3,
        citations_per_paper: 6,
        vocabulary: 400,
        seed: 0xD8_1F,
    }
}

/// Loads a DBLP instance under the given configuration.
pub fn dblp_instance(cfg: Config, data: &DblpConfig) -> XKeyword {
    let d = data.generate();
    XKeyword::load(d.graph, d.tss, cfg.load_options()).expect("DBLP data conforms")
}

/// Picks `n` two-keyword queries over author surnames with moderate
/// selectivity (each keyword matching 2–40 nodes), mimicking the paper's
/// author-name queries.
pub fn pick_author_queries(xk: &XKeyword, n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < n && attempts < 10_000 {
        attempts += 1;
        let a = format!("surname{}", rng.gen_range(0..125));
        let b = format!("surname{}", rng.gen_range(0..125));
        if a == b {
            continue;
        }
        let ca = xk.master().containing_list(&a).len();
        let cb = xk.master().containing_list(&b).len();
        if (2..=40).contains(&ca) && (2..=40).contains(&cb) {
            out.push((a, b));
        }
    }
    assert_eq!(out.len(), n, "could not find {n} selective queries");
    out
}

/// Generates candidate networks once (decomposition-independent) and
/// builds plans against this instance's catalog — the per-decomposition
/// part of query processing.
pub fn plans_for(xk: &XKeyword, keywords: &[&str], z: usize) -> Vec<CtssnPlan> {
    let achievable = xk.master().achievable_sets(keywords);
    if achievable.is_empty() {
        return Vec::new();
    }
    let gen = CnGenerator::new(xk.tss.schema(), &achievable, keywords.len());
    gen.generate(z)
        .iter()
        .filter_map(|cn| Ctssn::from_cn(cn, &xk.tss).ok())
        .filter_map(|c| build_plan(&c, &xk.catalog(), &xk.master(), keywords))
        .collect()
}

/// Restricts plans to those whose CTSSN size is ≤ `m` (the paper's
/// Fig. 15(b)/16(a) sweep over "maximum CTSSN size").
pub fn cap_ctssn_size(plans: &[CtssnPlan], m: usize) -> Vec<CtssnPlan> {
    plans
        .iter()
        .filter(|p| p.ctssn.size() <= m)
        .cloned()
        .collect()
}

/// A cached execution mode matching §6 (fixed-size cache).
pub fn cached() -> ExecMode {
    ExecMode::Cached { capacity: 8192 }
}

/// Nested-loop evaluation in the default [`cached`] mode.
pub fn cached_join() -> Join {
    Join::NestedLoop(cached())
}

/// Evaluates a request against `xk`'s store and current catalog. Bench
/// plans come straight from the optimizer and nothing injects faults,
/// so a typed error is a harness bug.
pub fn run(xk: &XKeyword, req: &ExecRequest<'_>) -> QueryResults {
    exec::execute(&xk.db, &xk.catalog(), req).expect("bench request evaluates")
}

/// Times the decomposition algorithms on the DBLP TSS graph (sanity
/// probe used by `experiments decompose`).
#[allow(clippy::disallowed_macros)] // this probe's job is printing timings
pub fn time_decompositions() {
    use std::time::Instant;
    let tss = dblp::tss_graph();
    type Builder<'a> = Box<dyn Fn() -> xkw_core::decompose::Decomposition + 'a>;
    let specs: Vec<(&str, Builder<'_>)> = vec![
        ("minimal", Box::new(|| xkw_core::decompose::minimal(&tss))),
        (
            "complete(2)",
            Box::new(|| xkw_core::decompose::complete(&tss, 2)),
        ),
        (
            "xkeyword(6,2)",
            Box::new(|| xkw_core::decompose::xkeyword(&tss, 6, 2)),
        ),
    ];
    for (name, f) in specs {
        let t = Instant::now();
        let d = f();
        println!(
            "{name}: {} fragments in {:?}",
            d.fragments.len(),
            t.elapsed()
        );
    }
}

/// The bench-scale TPC-H-like configuration (the second evaluation
/// schema: Figures 1/5/6).
pub fn bench_tpch_config() -> xkw_datagen::tpch::TpchConfig {
    xkw_datagen::tpch::TpchConfig {
        persons: 60,
        orders_per_person: 3,
        lineitems_per_order: 3,
        parts: 100,
        subparts_per_part: 2,
        product_line_pct: 30,
        service_calls_per_person: 1,
        seed: 0x79C4,
    }
}

/// Loads a TPC-H instance under the given configuration.
pub fn tpch_instance(cfg: Config, data: &xkw_datagen::tpch::TpchConfig) -> XKeyword {
    let d = data.generate();
    XKeyword::load(d.graph, d.tss, cfg.load_options()).expect("TPC-H data conforms")
}

/// Product-noun query pairs ("TV, VCR" style) with moderate selectivity.
pub fn pick_product_queries(xk: &XKeyword, n: usize) -> Vec<(String, String)> {
    let nouns = xkw_datagen::words::PRODUCT_NOUNS;
    let mut out = Vec::new();
    'outer: for i in 0..nouns.len() {
        for j in i + 1..nouns.len() {
            let (a, b) = (nouns[i].to_lowercase(), nouns[j].to_lowercase());
            let ca = xk.master().containing_list(&a).len();
            let cb = xk.master().containing_list(&b).len();
            if (2..=30).contains(&ca) && (2..=30).contains(&cb) {
                out.push((a, b));
                if out.len() >= n {
                    break 'outer;
                }
            }
        }
    }
    assert!(out.len() >= n.min(3), "need selective product queries");
    out
}
