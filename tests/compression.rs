//! Correctness harness for the packed containing-list format:
//!
//! * property tests that `PackedPostings` round-trips arbitrary posting
//!   lists exactly (iteration and skip-ahead both agree with the raw
//!   layout), and
//! * a fig15a-shape determinism harness asserting query results are
//!   byte-identical between the raw and packed master-index formats at
//!   1, 2 and 8 execution threads — the PR 2 thread-count guarantee
//!   doubling as the storage-format correctness oracle.

use proptest::prelude::*;
use xkeyword::core::exec::ExecMode;
use xkeyword::core::postings::{Posting, PostingsFormat, PostingsFormatKind, PostingsList};
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::dblp::DblpConfig;
use xkeyword::graph::{NodeId, SchemaNodeId};

/// Builds postings from primitive triples: dense ids exercise narrow
/// bitpack widths, full-range ids the wide/straddling paths.
fn postings(triples: &[(u32, u32, u16)]) -> Vec<Posting> {
    triples
        .iter()
        .map(|&(to, node, sn)| Posting {
            to,
            node: NodeId(node),
            schema_node: SchemaNodeId(sn),
        })
        .collect()
}

fn sort_key(p: &Posting) -> (u32, NodeId, SchemaNodeId) {
    (p.to, p.node, p.schema_node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_round_trips_arbitrary_lists(
        dense in prop::collection::vec((0u32..2_000, 0u32..10_000, 0u16..32), 0..400),
        wild in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u16>()), 0..200),
    ) {
        let mut list = postings(&dense);
        list.extend(postings(&wild));
        let mut expect = list.clone();
        expect.sort_unstable_by_key(sort_key);
        let packed = PostingsList::build(list.clone(), PostingsFormatKind::Packed);
        let raw = PostingsList::build(list, PostingsFormatKind::Raw);
        prop_assert_eq!(packed.len(), expect.len());
        prop_assert_eq!(packed.size_bytes() > 0, !expect.is_empty());
        let decoded: Vec<Posting> = packed.iter().collect();
        prop_assert_eq!(&decoded, &expect);
        let raw_side: Vec<Posting> = raw.iter().collect();
        prop_assert_eq!(&raw_side, &expect);
    }

    #[test]
    fn seek_agrees_with_linear_filter(
        dense in prop::collection::vec((0u32..2_000, 0u32..10_000, 0u16..32), 0..400),
        wild in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u16>()), 0..100),
        dense_min in 0u32..2_000,
        wild_min in any::<u32>(),
    ) {
        let mut list = postings(&dense);
        list.extend(postings(&wild));
        let mut sorted = list.clone();
        sorted.sort_unstable_by_key(sort_key);
        for min_to in [dense_min, wild_min, 0, u32::MAX] {
            let expect: Vec<Posting> =
                sorted.iter().copied().filter(|p| p.to >= min_to).collect();
            for kind in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
                let built = PostingsList::build(list.clone(), kind);
                let got: Vec<Posting> = built.seek(min_to).collect();
                prop_assert_eq!(&got, &expect, "{} seek({})", kind, min_to);
            }
        }
    }
}

/// A fig15a-shape DBLP instance: bench-scale citation structure, small
/// enough for the test budget.
fn fig15a_config() -> DblpConfig {
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

fn load(format: PostingsFormatKind) -> XKeyword {
    let d = fig15a_config().generate();
    XKeyword::load(
        d.graph,
        d.tss,
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 5, b: 2 },
            pool_pages: 512,
            postings_format: format,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

/// Two author surnames sharing a paper — a query guaranteed to produce
/// results, mirroring the paper's author-pair workload.
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
            .filter(|(e, _)| tss.node(tss.edge(*e).to).name == "Author")
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

/// Raw and packed indexes hold identical containing lists, and query
/// results — full enumeration, hash joins and top-k — are byte-identical
/// between the two formats at 1, 2 and 8 execution threads.
#[test]
fn results_identical_raw_vs_packed_at_1_2_8_threads() {
    let raw = load(PostingsFormatKind::Raw);
    let packed = load(PostingsFormatKind::Packed);
    assert_eq!(raw.master().format(), PostingsFormatKind::Raw);
    assert_eq!(packed.master().format(), PostingsFormatKind::Packed);
    assert_eq!(
        raw.master().posting_count(),
        packed.master().posting_count()
    );
    assert!(
        packed.master().postings_bytes() < raw.master().postings_bytes(),
        "packed ({}) must undercut raw ({})",
        packed.master().postings_bytes(),
        raw.master().postings_bytes()
    );

    let (a, b) = coauthor_pair(&raw);
    assert_eq!((a.clone(), b.clone()), coauthor_pair(&packed));
    let kws = [a.as_str(), b.as_str()];
    assert_eq!(
        raw.master().containing_list(&a).to_vec(),
        packed.master().containing_list(&a).to_vec()
    );

    for threads in [1usize, 2, 8] {
        let mode = ExecMode::Cached { capacity: 4096 };
        let all = QuerySpec {
            threads,
            ..QuerySpec::all(&kws, 7, mode)
        };
        let hash = QuerySpec {
            threads,
            ..QuerySpec::all_hash(&kws, 7)
        };
        let topk = QuerySpec {
            threads,
            ..QuerySpec::topk(&kws, 7, 10, mode)
        };

        let r = raw.engine().query(&all).unwrap().results;
        let p = packed.engine().query(&all).unwrap().results;
        assert_eq!(r.rows, p.rows, "query_all rows, {threads} threads");
        assert!(!r.rows.is_empty(), "harness must not be vacuous");

        let rh = raw.engine().query(&hash).unwrap().results;
        let ph = packed.engine().query(&hash).unwrap().results;
        assert_eq!(rh.rows, ph.rows, "hash rows, {threads} threads");

        let rt = raw.engine().query(&topk).unwrap().results;
        let pt = packed.engine().query(&topk).unwrap().results;
        assert_eq!(rt.rows, pt.rows, "topk rows, {threads} threads");
        assert_eq!(rt.mttons(), pt.mttons(), "topk mttons, {threads} threads");
    }
}
