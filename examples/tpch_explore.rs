//! Interactive-result-graph walkthrough (§3.2, Figure 3): instead of a
//! flood of near-duplicate results, XKeyword shows one result per
//! candidate network and lets the user expand/contract node by node.
//! This example scripts the navigation of Figure 3 on the Figure 2 data:
//! the "US, VCR" query whose four results N1..N4 differ only in which
//! lineitem and which VCR subpart they use.
//!
//! ```sh
//! cargo run --example tpch_explore
//! ```

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use xkeyword::core::exec::{ExecMode, PartialCache};
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;

fn main() {
    let (graph, _, _) = tpch::figure1();
    // The on-demand expansion uses the combination of the inlined and
    // minimal decompositions, per §6.
    let xk = XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::Combined { m: 6, b: 2 },
            ..LoadOptions::default()
        },
    )
    .unwrap();

    let kws = ["us", "vcr"];
    let plans = xk.plans(&kws, 8);
    println!("{} candidate networks for {kws:?}", plans.len());

    // The Figure 2 candidate network: Person—Lineitem—Part—Part via the
    // supplier edge. The list presentation would print all four N1..N4;
    // the presentation graph starts with just one.
    let full = xk
        .engine()
        .query(&QuerySpec::all(&kws, 8, ExecMode::Naive))
        .unwrap()
        .results;
    let li = seg(&xk, "Lineitem");
    let person = seg(&xk, "Person");
    let supplier_edge = xk.tss.find_edge(li, person).unwrap();
    let fig2: Vec<usize> = (0..plans.len())
        .filter(|&i| {
            plans[i].ctssn.size() == 3
                && plans[i]
                    .ctssn
                    .tree
                    .edges
                    .iter()
                    .any(|e| e.edge == supplier_edge)
        })
        .collect();
    let (pi, mut pg) = fig2
        .iter()
        .find_map(|&i| xk.initial_presentation(&plans, i).map(|p| (i, p)))
        .expect("the Figure 2 CN has results");
    let n_results = full.rows.iter().filter(|r| r.plan == pi).count();
    println!(
        "Figure 2 CN [{}] has {n_results} raw results; the list view would show all of them.",
        plans[pi].ctssn.display(&xk.tss)
    );

    println!("\n— PG0: one arbitrarily chosen result —");
    print!("{}", xk.render_presentation(&plans, &pg));

    let mut cache = PartialCache::new(4096);

    // Fig. 3(b): click the lineitem node → both lineitems appear.
    let li_role = role_of(&xk, &plans[pi], "Lineitem");
    xk.expand(&kws, &plans, &mut pg, li_role, &mut cache);
    println!("\n— after expanding the Lineitem node (Fig. 3b) —");
    print!("{}", xk.render_presentation(&plans, &pg));

    // Expand the VCR part role too: both subparts appear.
    let vcr_role = (0..plans[pi].role_count() as u8)
        .rfind(|&r| {
            xk.tss.node(plans[pi].ctssn.tree.roles[r as usize]).name == "Part"
                && plans[pi].candidates[r as usize].is_some()
        })
        .unwrap();
    xk.expand(&kws, &plans, &mut pg, vcr_role, &mut cache);
    println!("\n— after expanding the VCR Part node —");
    print!("{}", xk.render_presentation(&plans, &pg));

    // Fig. 3(c): contract back onto one lineitem.
    let keep = pg.nodes_of_role(li_role)[0];
    pg.contract((li_role, keep));
    println!("\n— after contracting onto one Lineitem (Fig. 3c) —");
    print!("{}", xk.render_presentation(&plans, &pg));

    assert!(pg.invariant_holds());
    println!("\ninvariant holds: every displayed node lies on a complete result");
}

fn seg(xk: &XKeyword, name: &str) -> xkeyword::graph::TssId {
    xk.tss
        .node_ids()
        .find(|&i| xk.tss.node(i).name == name)
        .unwrap()
}

fn role_of(xk: &XKeyword, plan: &xkeyword::core::optimizer::CtssnPlan, seg_name: &str) -> u8 {
    (0..plan.role_count() as u8)
        .find(|&r| xk.tss.node(plan.ctssn.tree.roles[r as usize]).name == seg_name)
        .unwrap()
}
