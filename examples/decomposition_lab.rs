//! Decomposition laboratory: the §5 space/performance tradeoff, live.
//!
//! Loads the same DBLP-like dataset under each of the paper's five
//! decomposition configurations and reports, per configuration: fragment
//! count, stored id cells, disk pages, per-CTSSN join counts, and the
//! probes/IO a top-k query actually performs.
//!
//! ```sh
//! cargo run --release --example decomposition_lab
//! ```

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use xkeyword::core::decompose::has_mvd;
use xkeyword::core::exec::{self, ExecMode};
use xkeyword::core::prelude::*;
use xkeyword::core::relations::PhysicalPolicy;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;

fn main() {
    let data_cfg = DblpConfig {
        conferences: 4,
        years_per_conference: 4,
        papers_per_year: 20,
        authors: 150,
        authors_per_paper: 3,
        citations_per_paper: 5,
        vocabulary: 250,
        seed: 99,
    };

    let configs: Vec<(&str, DecompositionSpec, PhysicalPolicy)> = vec![
        (
            "XKeyword",
            DecompositionSpec::XKeyword { m: 6, b: 2 },
            PhysicalPolicy::clustered(),
        ),
        (
            "Complete",
            DecompositionSpec::Complete { l: 2 },
            PhysicalPolicy::clustered(),
        ),
        (
            "MinClust",
            DecompositionSpec::Minimal,
            PhysicalPolicy::clustered(),
        ),
        (
            "MinNClustIndx",
            DecompositionSpec::Minimal,
            PhysicalPolicy::indexed(),
        ),
        (
            "MinNClustNIndx",
            DecompositionSpec::Minimal,
            PhysicalPolicy::bare(),
        ),
    ];

    println!(
        "{:<16}{:>6}{:>6}{:>12}{:>8}{:>10}{:>10}{:>10}",
        "decomposition", "frags", "MVD", "id-cells", "pages", "joins", "probes", "io"
    );
    for (name, spec, policy) in configs {
        let d = data_cfg.generate();
        let xk = XKeyword::load(
            d.graph,
            d.tss,
            LoadOptions {
                decomposition: spec,
                policy,
                pool_pages: 1024,
                build_blobs: false,
                ..LoadOptions::default()
            },
        )
        .unwrap();
        let mvd = xk
            .catalog()
            .decomposition
            .fragments
            .iter()
            .filter(|f| has_mvd(&f.tree, &xk.tss))
            .count();
        let plans = xk.plans(&["surname3", "surname7"], 8);
        let joins: usize = plans.iter().map(|p| p.joins()).sum();
        let io_before = xk.db.io();
        let res = exec::execute(
            &xk.db,
            &xk.catalog(),
            &ExecRequest {
                threads: 4,
                ..ExecRequest::topk(
                    &plans,
                    Join::NestedLoop(ExecMode::Cached { capacity: 8192 }),
                    20,
                )
            },
        )
        .unwrap();
        let io = xk.db.io().since(io_before);
        println!(
            "{:<16}{:>6}{:>6}{:>12}{:>8}{:>10}{:>10}{:>10}",
            name,
            xk.catalog().decomposition.fragments.len(),
            mvd,
            xk.catalog().space_cells(),
            xk.db.disk_pages(),
            joins,
            res.stats.probes,
            io.logical(),
        );
    }
    println!("\n(joins = total over all candidate networks of the query;");
    println!(" probes/io measured for a cached top-20 of \"surname3 surname7\")");
}
