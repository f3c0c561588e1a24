//! End-to-end pipeline tests on DBLP-like data (the paper's evaluation
//! dataset): oracle agreement at small scale, engine-vs-engine agreement
//! across every decomposition at medium scale, top-k and presentation
//! sanity.

use xkeyword::core::exec::{self, ExecMode};
use xkeyword::core::prelude::*;
use xkeyword::core::relations::PhysicalPolicy;
use xkeyword::core::semantics::enumerate_mttons;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;

fn tiny() -> DblpConfig {
    DblpConfig {
        conferences: 2,
        years_per_conference: 2,
        papers_per_year: 5,
        authors: 12,
        authors_per_paper: 2,
        citations_per_paper: 2,
        vocabulary: 40,
        seed: 11,
    }
}

fn medium() -> DblpConfig {
    DblpConfig {
        conferences: 3,
        years_per_conference: 3,
        papers_per_year: 15,
        authors: 60,
        authors_per_paper: 3,
        citations_per_paper: 4,
        vocabulary: 100,
        seed: 12,
    }
}

fn load(cfg: &DblpConfig, spec: DecompositionSpec, policy: PhysicalPolicy) -> XKeyword {
    let d = cfg.generate();
    XKeyword::load(
        d.graph,
        d.tss,
        LoadOptions {
            decomposition: spec,
            policy,
            pool_pages: 512,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

/// Picks a keyword pair with results: two surnames sharing a paper.
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
            .filter(|(e, _)| {
                let te = tss.edge(*e);
                tss.node(te.to).name == "Author"
            })
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

/// At tiny scale, the full pipeline equals the brute-force §3.1 oracle
/// with Z = 6 on DBLP data (reference edges, citations, shared authors).
#[test]
fn oracle_agreement_small_dblp() {
    let xk = load(
        &tiny(),
        DecompositionSpec::XKeyword { m: 4, b: 2 },
        PhysicalPolicy::clustered(),
    );
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let got = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 2048 },
        ))
        .unwrap()
        .results
        .mttons();
    let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, 6);
    assert_eq!(got, want);
    assert!(!got.is_empty(), "co-authors must be connected");
    // The best result is the co-authored paper: aname-paper-aname = 4
    // schema edges.
    assert_eq!(got.iter().map(|m| m.score).min(), Some(4));
}

/// Every decomposition × policy combination returns the same result set
/// (cached, naive and hash-join engines included).
#[test]
fn all_decompositions_agree_on_medium_dblp() {
    let cfg = medium();
    let configs: Vec<(DecompositionSpec, PhysicalPolicy)> = vec![
        (DecompositionSpec::Minimal, PhysicalPolicy::clustered()),
        (DecompositionSpec::Minimal, PhysicalPolicy::indexed()),
        (DecompositionSpec::Minimal, PhysicalPolicy::bare()),
        (
            DecompositionSpec::Complete { l: 2 },
            PhysicalPolicy::clustered(),
        ),
        (
            DecompositionSpec::XKeyword { m: 5, b: 2 },
            PhysicalPolicy::clustered(),
        ),
        (
            DecompositionSpec::Combined { m: 5, b: 2 },
            PhysicalPolicy::clustered(),
        ),
    ];
    let mut reference: Option<Vec<Mtton>> = None;
    for (spec, policy) in configs {
        let xk = load(&cfg, spec.clone(), policy);
        let (a, b) = coauthor_pair(&xk);
        let kws = [a.as_str(), b.as_str()];
        for mode in [ExecMode::Naive, ExecMode::Cached { capacity: 4096 }] {
            let got = xk
                .engine()
                .query(&QuerySpec::all(&kws, 7, mode))
                .unwrap()
                .results
                .mttons();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{spec:?}/{policy:?}/{mode:?}"),
            }
        }
        let hash = xk
            .engine()
            .query(&QuerySpec::all_hash(&kws, 7))
            .unwrap()
            .results
            .mttons();
        assert_eq!(&hash, reference.as_ref().unwrap(), "{spec:?} hash");
    }
    assert!(!reference.unwrap().is_empty());
}

/// Top-k returns k results, each a genuine result, biased toward small
/// scores (smaller CNs are scheduled first).
#[test]
fn topk_sanity() {
    let xk = load(
        &medium(),
        DecompositionSpec::Complete { l: 2 },
        PhysicalPolicy::clustered(),
    );
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let all = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            7,
            ExecMode::Cached { capacity: 4096 },
        ))
        .unwrap()
        .results;
    let total = all.rows.len();
    assert!(total > 10);
    let k = 10;
    let top = xk
        .engine()
        .query(&QuerySpec {
            threads: 4,
            ..QuerySpec::topk(&kws, 7, k, ExecMode::Cached { capacity: 4096 })
        })
        .unwrap()
        .results;
    assert_eq!(top.rows.len(), k);
    let valid: std::collections::HashSet<Mtton> = all.rows.iter().map(|r| r.to_mtton()).collect();
    for r in &top.rows {
        assert!(valid.contains(&r.to_mtton()));
    }
    // The minimum score must be found (smallest CN runs first).
    let best_all = all.rows.iter().map(|r| r.score).min().unwrap();
    let best_top = top.rows.iter().map(|r| r.score).min().unwrap();
    assert_eq!(best_all, best_top);
}

/// On-demand expansion keeps the §3.2 invariant on DBLP presentation
/// graphs and grows monotonically.
#[test]
fn presentation_expansion_dblp() {
    let xk = load(
        &medium(),
        DecompositionSpec::Combined { m: 5, b: 2 },
        PhysicalPolicy::clustered(),
    );
    let (a, b) = coauthor_pair(&xk);
    let kws = [a.as_str(), b.as_str()];
    let plans = xk.plans(&kws, 7);
    let res = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            7,
            ExecMode::Cached { capacity: 4096 },
        ))
        .unwrap()
        .results;
    let pi = res.rows[0].plan;
    let mut pg = xk.initial_presentation(&plans, pi).expect("PG0");
    let initial = pg.len();
    let mut cache = exec::PartialCache::new(4096);
    for role in 0..plans[pi].role_count() as u8 {
        xk.expand(&kws, &plans, &mut pg, role, &mut cache);
        assert!(pg.invariant_holds(), "after expanding role {role}");
    }
    assert!(pg.len() >= initial);
    // Every node of every result of this CN is now displayed.
    for r in res.rows.iter().filter(|r| r.plan == pi) {
        for (role, &to) in r.assignment.iter().enumerate() {
            assert!(pg.contains((role as u8, to)));
        }
    }
}

/// BLOBs exist for every target object and parse back as XML fragments.
#[test]
fn blobs_round_trip() {
    let xk = load(
        &tiny(),
        DecompositionSpec::Minimal,
        PhysicalPolicy::clustered(),
    );
    for id in 0..xk.targets().len() as u32 {
        let blob = xk.blob(id).expect("blob");
        let parsed = xkeyword::graph::parse(&blob).expect("parses");
        assert!(parsed.node_count() >= 1);
    }
}

/// The load stage rejects data that does not classify against the schema.
#[test]
fn load_rejects_alien_data() {
    let mut g = xkeyword::graph::XmlGraph::new();
    g.add_node("alien", None);
    let err = XKeyword::load(
        g,
        xkeyword::datagen::dblp::tss_graph(),
        LoadOptions::default(),
    );
    assert!(err.is_err());
}
