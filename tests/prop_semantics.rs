//! Randomized end-to-end semantics check: on arbitrary generated TPC-H
//! instances and arbitrary value-keyword pairs, the full relational
//! pipeline (CN generation → reduction → optimizer → execution) must
//! produce exactly the MTTON set of the brute-force §3.1 oracle.

use proptest::prelude::*;
use std::collections::HashSet;
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::semantics::enumerate_mttons;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch::TpchConfig;

/// Collects candidate query keywords: leaf-value tokens that occur in the
/// data but never inside dummy elements (dummies carry no target object,
/// so the oracle and the engine would legitimately disagree on them).
fn value_keywords(g: &xkeyword::graph::XmlGraph) -> Vec<String> {
    let mut out: HashSet<String> = HashSet::new();
    for n in g.node_ids() {
        if let Some(v) = g.value(n) {
            for t in xkeyword::graph::graph::tokenize(v) {
                if t.chars().any(|c| c.is_alphabetic()) {
                    out.insert(t);
                }
            }
        }
    }
    let mut v: Vec<String> = out.into_iter().collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_equals_oracle_on_random_tpch(
        seed in 0u64..10_000,
        persons in 3usize..8,
        parts in 4usize..10,
        ka in 0usize..1000,
        kb in 0usize..1000,
        spec_choice in 0usize..3,
    ) {
        let cfg = TpchConfig {
            persons,
            orders_per_person: 2,
            lineitems_per_order: 2,
            parts,
            subparts_per_part: 1,
            product_line_pct: 40,
            service_calls_per_person: 1,
            seed,
        };
        let data = cfg.generate();
        let keywords = value_keywords(&data.graph);
        prop_assume!(keywords.len() >= 2);
        let a = keywords[ka % keywords.len()].clone();
        let b = keywords[kb % keywords.len()].clone();
        prop_assume!(a != b);

        let spec = match spec_choice {
            0 => DecompositionSpec::Minimal,
            1 => DecompositionSpec::Complete { l: 2 },
            _ => DecompositionSpec::XKeyword { m: 4, b: 2 },
        };
        let xk = XKeyword::load(
            data.graph,
            data.tss,
            LoadOptions {
                decomposition: spec,
                ..LoadOptions::default()
            },
        )
        .unwrap();

        let z = 6;
        let kws = [a.as_str(), b.as_str()];
        let got = xk
            .engine().query(&QuerySpec::all(&kws, z, ExecMode::Cached { capacity: 2048 })).unwrap().results
            .mttons();
        let want = enumerate_mttons(&xk.graph(), &xk.targets(), &kws, z);
        prop_assert_eq!(got, want, "keywords {:?} seed {}", kws, seed);
    }
}
