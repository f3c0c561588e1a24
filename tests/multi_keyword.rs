//! Queries with more than two keywords: the §3.1 semantics and the
//! generator/execution pipeline are defined for any m ≤ 16; the paper's
//! evaluation uses m = 2, so this suite guards the general case.
//!
//! With ≥ 3 keywords, candidate networks stop being paths (a result can
//! be a star joining three keyword leaves), exercising the branching
//! cases of the CN pruning rules and of the tiling optimizer.

use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::semantics::enumerate_mttons;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;

fn load(spec: DecompositionSpec) -> XKeyword {
    let (graph, _, _) = tpch::figure1();
    XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: spec,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn three_keywords_match_oracle() {
    for spec in [
        DecompositionSpec::Minimal,
        DecompositionSpec::XKeyword { m: 6, b: 2 },
    ] {
        let xk = load(spec);
        for kws in [
            ["john", "mike", "vcr"],
            ["us", "tv", "vcr"],
            ["john", "us", "dvd"],
        ] {
            let got = xk
                .engine()
                .query(&QuerySpec::all(
                    &kws,
                    8,
                    ExecMode::Cached { capacity: 4096 },
                ))
                .unwrap()
                .results
                .mttons();
            let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, 8);
            assert_eq!(got, want, "{kws:?}");
        }
    }
}

#[test]
fn three_keyword_cns_include_stars() {
    // On DBLP, "surname + surname + year" branches: a paper with two
    // authors inside a given year is a star at the Paper role (Year +
    // two Authors). Three annotated leaves cannot lie on one path unless
    // one annotation is internal.
    // Tiny instance: the brute-force oracle below is exponential in the
    // citation fan-out.
    let data = xkeyword::datagen::dblp::DblpConfig {
        conferences: 2,
        years_per_conference: 2,
        papers_per_year: 4,
        authors: 8,
        authors_per_paper: 3,
        citations_per_paper: 1,
        vocabulary: 30,
        seed: 5,
    }
    .generate();
    let xk = XKeyword::load(data.graph, data.tss, LoadOptions::default()).unwrap();
    // Find a co-authored paper and its year value.
    let paper_seg = xk
        .tss
        .node_ids()
        .find(|&i| xk.tss.node(i).name == "Paper")
        .unwrap();
    let (a, b) = xk
        .targets()
        .tos_of(paper_seg)
        .iter()
        .find_map(|&p| {
            let authors: Vec<_> = xk
                .targets()
                .edges_out(p)
                .iter()
                .filter(|(e, _)| xk.tss.node(xk.tss.edge(*e).to).name == "Author")
                .map(|&(_, a)| a)
                .collect();
            if authors.len() < 2 {
                return None;
            }
            let surname = |t| {
                xk.label(t)
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .trim_end_matches(']')
                    .to_owned()
            };
            let (sa, sb) = (surname(authors[0]), surname(authors[1]));
            (sa != sb).then_some((sa, sb))
        })
        .expect("a co-authored paper");
    let kws = [a.as_str(), b.as_str(), "1998"];
    let plans = xk.plans(&kws, 6);
    assert!(!plans.is_empty());
    let branching = plans
        .iter()
        .any(|p| (0..p.role_count() as u8).any(|r| p.ctssn.tree.incident(r).count() >= 3));
    assert!(branching, "some CN should branch for 3 keywords");
    // All plans cover all three keywords exactly once.
    for p in &plans {
        let mut covered = 0u16;
        for (_, reqs) in p.ctssn.annotated_roles() {
            for r in reqs {
                assert_eq!(covered & r.set, 0, "keyword used twice");
                covered |= r.set;
            }
        }
        assert_eq!(covered, 0b111);
    }
    // And the branching plans actually execute correctly.
    let got = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 4096 },
        ))
        .unwrap()
        .results
        .mttons();
    let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, 6);
    assert_eq!(got, want);
}

#[test]
fn four_keywords_single_result_shape() {
    // All four keywords of the product description sentence plus its
    // supplier: "set", "dvd", "vcr" are in one node; "john" nearby.
    let xk = load(DecompositionSpec::Minimal);
    let kws = ["set", "dvd", "vcr", "john"];
    let got = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            8,
            ExecMode::Cached { capacity: 4096 },
        ))
        .unwrap()
        .results
        .mttons();
    let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, 8);
    assert_eq!(got, want);
    // Best result: the descr node holds {set, dvd, vcr}; John connects
    // through the supplier chain — same shape as the size-6 two-keyword
    // result.
    assert_eq!(got.iter().map(|m| m.score).min(), Some(6));
}

#[test]
fn oracle_agreement_on_random_data_three_keywords() {
    let data = tpch::TpchConfig {
        persons: 5,
        orders_per_person: 2,
        lineitems_per_order: 2,
        parts: 6,
        subparts_per_part: 1,
        product_line_pct: 50,
        service_calls_per_person: 1,
        seed: 31,
    }
    .generate();
    let xk = XKeyword::load(data.graph, data.tss, LoadOptions::default()).unwrap();
    // Pick three value tokens present in the data.
    let graph = xk.graph();
    let mut toks: Vec<String> = graph
        .node_ids()
        .filter_map(|n| graph.value(n))
        .flat_map(xkeyword::graph::graph::tokenize)
        .filter(|t| t.chars().any(|c| c.is_alphabetic()))
        .collect();
    toks.sort();
    toks.dedup();
    assert!(toks.len() >= 3);
    let kws = [
        toks[0].as_str(),
        toks[toks.len() / 2].as_str(),
        toks[toks.len() - 1].as_str(),
    ];
    let got = xk
        .engine()
        .query(&QuerySpec::all(
            &kws,
            6,
            ExecMode::Cached { capacity: 4096 },
        ))
        .unwrap()
        .results
        .mttons();
    let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, 6);
    assert_eq!(got, want, "{kws:?}");
}
