//! DBLP-style search: the paper's demo scenario — find how two authors
//! are connected (co-authorship, citation chains, shared venues) with a
//! plain two-keyword query, presented as a ranked result list.
//!
//! ```sh
//! cargo run --release --example dblp_search [surname1 surname2]
//! ```

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;

fn main() {
    let t = Instant::now();
    let data = DblpConfig {
        conferences: 4,
        years_per_conference: 4,
        papers_per_year: 25,
        authors: 200,
        authors_per_paper: 3,
        citations_per_paper: 6,
        vocabulary: 300,
        seed: 42,
    }
    .generate();
    println!(
        "Generated DBLP-like data: {} nodes, {} edges ({:?})",
        data.graph.node_count(),
        data.graph.edge_count(),
        t.elapsed()
    );

    let t = Instant::now();
    let xk = XKeyword::load(
        data.graph,
        data.tss,
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            ..LoadOptions::default()
        },
    )
    .unwrap();
    println!(
        "Load stage: {} target objects, {} relations, {} keywords indexed ({:?})",
        xk.targets().len(),
        xk.catalog().len(),
        xk.master().keyword_count(),
        t.elapsed()
    );

    // Query: two author surnames (defaults chosen to be connected).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (a, b) = if args.len() == 2 {
        (args[0].clone(), args[1].clone())
    } else {
        ("surname3".to_owned(), "surname7".to_owned())
    };
    println!(
        "\nquery: \"{a} {b}\"  (containing lists: {} and {})",
        xk.master().containing_list(&a).len(),
        xk.master().containing_list(&b).len()
    );

    let t = Instant::now();
    let plans = xk.plans(&[&a, &b], 8);
    println!(
        "{} candidate networks up to Z = 8 ({:?})",
        plans.len(),
        t.elapsed()
    );

    let t = Instant::now();
    let k = 10;
    let res = xk
        .engine()
        .query(&QuerySpec {
            threads: 4,
            ..QuerySpec::topk(&[&a, &b], 8, k, ExecMode::Cached { capacity: 8192 })
        })
        .unwrap()
        .results;
    println!(
        "top-{k} in {:?} ({} probes)\n",
        t.elapsed(),
        res.stats.probes
    );

    let mut rows = res.rows.clone();
    rows.sort_by_key(|r| r.score);
    for (i, r) in rows.iter().enumerate() {
        let plan = &plans[r.plan];
        // Render the result with the TSS edges' semantic annotations.
        let steps: Vec<String> = plan
            .ctssn
            .tree
            .edges
            .iter()
            .map(|e| {
                let te = xk.tss.edge(e.edge);
                format!(
                    "{} —{}→ {}",
                    xk.label(r.assignment[e.a as usize]),
                    te.forward_desc,
                    xk.label(r.assignment[e.b as usize])
                )
            })
            .collect();
        println!("{:>2}. size {:>2}: {}", i + 1, r.score, steps.join("; "));
    }
}
