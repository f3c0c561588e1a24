//! Quickstart: load the paper's Figure 1 document and run the keyword
//! query "John, VCR" from §1.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;

fn main() {
    // 1. The data: the paper's Figure 1 XML graph (persons, orders,
    //    lineitems, parts with subparts, a product, a service call).
    let (graph, _, _) = tpch::figure1();
    println!(
        "Figure 1 graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // 2. The load stage: target-object decomposition, master index,
    //    BLOBs and connection relations of the Fig. 12 decomposition.
    let xk = XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            ..LoadOptions::default()
        },
    )
    .expect("Figure 1 conforms to the TPC-H schema");
    println!(
        "Loaded: {} target objects, {} connection relations, {} disk pages",
        xk.targets().len(),
        xk.catalog().len(),
        xk.db.disk_pages()
    );

    // 3. A keyword proximity query: just two keywords, no schema
    //    knowledge required.
    let keywords = ["john", "vcr"];
    let z = 8; // maximum result size the user cares about
    let res = xk
        .engine()
        .query(&QuerySpec::all(
            &keywords,
            z,
            ExecMode::Cached { capacity: 1024 },
        ))
        .unwrap()
        .results;

    println!("\nResults for {keywords:?} (smaller size = closer connection):");
    let mut ranked = res.mttons();
    ranked.sort_by_key(|m| m.score);
    for m in &ranked {
        let labels: Vec<String> = m.tos.iter().map(|&t| xk.label(t)).collect();
        println!("  size {:>2}: {}", m.score, labels.join(" — "));
    }

    // 4. Target objects come with their XML fragments (BLOBs).
    let best = res
        .mttons()
        .into_iter()
        .min_by_key(|m| m.score)
        .expect("John supplied a VCR product");
    println!("\nTarget objects of the best result:");
    for &t in &best.tos {
        println!("  {}", xk.blob(t).unwrap());
    }

    println!(
        "\nstats: {} probes, {} rows fetched, {} results",
        res.stats.probes, res.stats.rows, res.stats.results
    );
}
