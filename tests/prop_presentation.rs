//! Property tests for the §3.2 presentation-graph semantics on randomized
//! DBLP instances: expansion properties (a)–(c), contraction properties,
//! and agreement between the exact (oracle-driven) and on-demand
//! (Fig. 13, probe-driven) expansions.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use xkeyword::core::exec::{self, ExecMode, PartialCache};
use xkeyword::core::optimizer::build_plan_anchored;
use xkeyword::core::prelude::*;
use xkeyword::core::presentation::expand_on_demand;
use xkeyword::datagen::dblp::DblpConfig;

fn instance(seed: u64) -> (XKeyword, (String, String)) {
    let data = DblpConfig {
        conferences: 2,
        years_per_conference: 2,
        papers_per_year: 8,
        authors: 16,
        authors_per_paper: 2,
        citations_per_paper: 2,
        vocabulary: 40,
        seed,
    }
    .generate();
    let xk = XKeyword::load(
        data.graph,
        data.tss,
        LoadOptions {
            decomposition: xkeyword::core::xkeyword::DecompositionSpec::Combined { m: 5, b: 2 },
            ..LoadOptions::default()
        },
    )
    .unwrap();
    // A connected surname pair: two authors of one paper.
    let paper_seg = xk
        .tss
        .node_ids()
        .find(|&i| xk.tss.node(i).name == "Paper")
        .unwrap();
    let pair = xk
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
            let (a, b) = (surname(authors[0]), surname(authors[1]));
            (a != b).then_some((a, b))
        })
        .expect("a co-authored paper");
    (xk, pair)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn expansion_and_contraction_properties(seed in 0u64..500, which_plan in 0usize..100) {
        let (xk, (a, b)) = instance(seed);
        let kws = [a.as_str(), b.as_str()];
        let plans = xk.plans(&kws, 6);
        let res = exec::execute(&xk.db, &xk.catalog(), &ExecRequest::all(&plans, Join::NestedLoop(ExecMode::Cached { capacity: 4096 }))).unwrap();
        // Group results by plan; pick one with results.
        let mut by_plan: HashMap<usize, Vec<Vec<ToId>>> = HashMap::new();
        for r in &res.rows {
            by_plan.entry(r.plan).or_default().push(r.assignment.clone());
        }
        prop_assume!(!by_plan.is_empty());
        let keys: Vec<usize> = {
            let mut k: Vec<usize> = by_plan.keys().copied().collect();
            k.sort_unstable();
            k
        };
        let pi = keys[which_plan % keys.len()];
        let mttons = &by_plan[&pi];
        let plan = &plans[pi];

        let mut pg = PresentationGraph::initial(pi, mttons[0].clone());
        // (a) expansion is a supergraph; (b) all role nodes displayed;
        // (c) every displayed node supported.
        for role in 0..plan.role_count() as u8 {
            let before: HashSet<(u8, ToId)> = pg.nodes().collect();
            pg.expand_exact(role, mttons);
            let after: HashSet<(u8, ToId)> = pg.nodes().collect();
            prop_assert!(before.is_subset(&after), "(a) violated");
            let required: HashSet<ToId> =
                mttons.iter().map(|m| m[role as usize]).collect();
            let shown: HashSet<ToId> = pg.nodes_of_role(role).into_iter().collect();
            prop_assert_eq!(&required, &shown, "(b) violated for role {}", role);
            prop_assert!(pg.invariant_holds(), "(c) violated");
        }
        // Contraction: subgraph, single node of the role, supported.
        let role = (plan.role_count() as u8).saturating_sub(1);
        let keep = mttons[0][role as usize];
        let before: HashSet<(u8, ToId)> = pg.nodes().collect();
        pg.contract((role, keep));
        let after: HashSet<(u8, ToId)> = pg.nodes().collect();
        prop_assert!(after.is_subset(&before));
        prop_assert_eq!(pg.nodes_of_role(role), vec![keep]);
        prop_assert!(pg.invariant_holds());
    }

    #[test]
    fn on_demand_equals_exact_on_random_instances(seed in 0u64..500) {
        let (xk, (a, b)) = instance(seed);
        let kws = [a.as_str(), b.as_str()];
        let plans = xk.plans(&kws, 5);
        let res = exec::execute(&xk.db, &xk.catalog(), &ExecRequest::all(&plans, Join::NestedLoop(ExecMode::Cached { capacity: 4096 }))).unwrap();
        let mut by_plan: HashMap<usize, Vec<Vec<ToId>>> = HashMap::new();
        for r in &res.rows {
            by_plan.entry(r.plan).or_default().push(r.assignment.clone());
        }
        prop_assume!(!by_plan.is_empty());
        let (&pi, mttons) = by_plan.iter().min_by_key(|(p, _)| **p).unwrap();
        let plan = &plans[pi];

        let mut exact = PresentationGraph::initial(pi, mttons[0].clone());
        let mut ondemand = PresentationGraph::initial(pi, mttons[0].clone());
        let mut cache = PartialCache::new(4096);
        for role in 0..plan.role_count() as u8 {
            exact.expand_exact(role, mttons);
            let anchored = build_plan_anchored(
                &plan.ctssn, &xk.catalog(), &xk.master(), &kws, role,
            )
            .unwrap();
            let universe = xk
                .targets()
                .tos_of(plan.ctssn.tree.roles[role as usize])
                .to_vec();
            expand_on_demand(
                &xk.db,
                &xk.catalog(),
                &anchored,
                &mut ondemand,
                &universe,
                ExecMode::Cached { capacity: 4096 },
                &mut cache,
            );
        }
        for role in 0..plan.role_count() as u8 {
            let mut e = exact.nodes_of_role(role);
            let mut o = ondemand.nodes_of_role(role);
            e.sort_unstable();
            o.sort_unstable();
            prop_assert_eq!(e, o, "role {} differs", role);
        }
        prop_assert!(ondemand.invariant_holds());
    }
}
