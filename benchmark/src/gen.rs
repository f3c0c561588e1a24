//! Seeded generators: the dataset and engine configuration every workload
//! shares, the `mix48` query pool, the enumeration pool, the ingest
//! documents and the operation sequences. Everything here is a pure
//! function of the `--seed` argument (and of the fixed dataset), so the
//! program under test only ever sees generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use xkw_core::exec::ExecMode;
use xkw_core::prelude::*;
use xkw_core::xkeyword::DecompositionSpec;
use xkw_datagen::dblp::DblpConfig;
use xkw_datagen::words::{Vocabulary, NAMES};
use xkw_store::FsyncPolicy;

/// CN size bound of every top-k query.
pub const Z: usize = 8;
/// CN size bound of the full enumeration (Z = 8 enumerates for seconds).
pub const Z_ENUM: usize = 7;
/// Results asked of every top-k query.
pub const K: usize = 10;
/// Partial-result cache capacity, as the server's default.
pub const CACHE_CAPACITY: usize = 8192;
/// Buffer pool that holds the whole dataset (3 319 pages).
pub const POOL_FITS: usize = 2048;
/// Buffer pool far below the ~720 pages an enumeration touches.
pub const POOL_SMALL: usize = 64;
/// Zipf exponent of the `mix48` draw.
pub const ZIPF_S: f64 = 1.1;
/// Operations per shuffled block of the `mix48` sequence.
pub const BLOCK: usize = 240;

pub const CACHED: ExecMode = ExecMode::Cached {
    capacity: CACHE_CAPACITY,
};

/// `dblp_s2`: 2 000 papers, 424 authors, 8 908 nodes. The dataset is the
/// database and is the same for every seed; the seed picks the queries,
/// the documents and the order of operations.
pub fn dataset() -> DblpConfig {
    DblpConfig {
        citations_per_paper: 6,
        ..DblpConfig::at_scale(2)
    }
}

pub fn load_options(pool_pages: usize, wal_dir: Option<PathBuf>) -> LoadOptions {
    LoadOptions {
        decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
        policy: PhysicalPolicy::clustered(),
        pool_pages,
        exec_threads: 1,
        build_blobs: false,
        postings_format: PostingsFormatKind::Packed,
        wal_dir,
        // Stated and fixed: an acknowledged write is a flushed write.
        fsync: FsyncPolicy::Always,
        ..LoadOptions::default()
    }
}

/// The query classes of `mix48`, cheapest shape first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Two author surnames (69 plans, ~2 ms warm).
    AuthorPair,
    /// Surname + title word (189 plans).
    SurnameTitle,
    /// Two title words of vocabulary rank >= 100 (515 plans, ~11 ms).
    TitlePair,
    /// Two surnames + a title word (209 plans).
    Three,
    /// Surname + conference name.
    SurnameConf,
    /// Surname + year.
    SurnameYear,
}

use Class::{
    AuthorPair as A, SurnameConf as C, SurnameTitle as S, SurnameYear as Y, Three as H,
    TitlePair as T,
};

/// Class of the query at each Zipf rank: 24 author pairs, 6 surname +
/// title, 6 title pairs, 4 three-keyword, 4 surname + conference, 4
/// surname + year. The seed draws the queries *within* a class; the class
/// at each rank is fixed so that every seed gives each shape the same
/// share of the traffic: the three ~2 ms shapes 82%, title pairs 14%, the
/// two mid-cost shapes 4%. The median then sits inside the cheap mode of
/// the bimodal cost and p95 inside the dear one, not on an edge — also for
/// a reader beside a writer, a third of whose queries plan cold.
pub const LAYOUT: [Class; 48] = [
    A, A, A, C, A, Y, T, T, T, T, T, T, A, A, C, A, A, Y, A, A, A, A, C, A, //
    A, Y, A, A, A, A, C, A, A, Y, A, A, A, A, S, H, S, H, S, H, S, H, S, S,
];

#[derive(Debug, Clone)]
pub struct Query {
    pub keywords: Vec<String>,
    pub class: Class,
}

impl Query {
    pub fn kw(&self) -> Vec<&str> {
        self.keywords.iter().map(String::as_str).collect()
    }
}

fn surname(rng: &mut StdRng, cfg: &DblpConfig) -> String {
    format!("surname{}", rng.gen_range(0..(cfg.authors / 2).max(1)))
}

fn title_word(rng: &mut StdRng, cfg: &DblpConfig) -> String {
    format!("w{}", rng.gen_range(100..cfg.vocabulary))
}

fn candidate(rng: &mut StdRng, cfg: &DblpConfig, class: Class) -> Vec<String> {
    match class {
        A => vec![surname(rng, cfg), surname(rng, cfg)],
        S => vec![surname(rng, cfg), title_word(rng, cfg)],
        T => vec![title_word(rng, cfg), title_word(rng, cfg)],
        H => vec![surname(rng, cfg), surname(rng, cfg), title_word(rng, cfg)],
        C => vec![
            surname(rng, cfg),
            format!("conf{}", rng.gen_range(0..cfg.conferences)),
        ],
        Y => vec![
            surname(rng, cfg),
            format!("{}", 1998 + rng.gen_range(0..cfg.years_per_conference)),
        ],
    }
}

/// Draws distinct queries of the classes `layout` asks for, in rank
/// order. A candidate is kept only if every keyword occurs in the data
/// and `accept` — which runs it — reports a non-empty result.
pub fn pool(
    seed: u64,
    layout: &[Class],
    xk: &XKeyword,
    mut accept: impl FnMut(&Query) -> bool,
) -> Vec<Query> {
    let cfg = dataset();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7834_3800_0000);
    let master = xk.master();
    let mut out: Vec<Query> = Vec::with_capacity(layout.len());
    for &class in layout {
        let mut tries = 0;
        loop {
            tries += 1;
            assert!(
                tries < 10_000,
                "no acceptable {class:?} query in 10 000 draws"
            );
            let mut keywords = candidate(&mut rng, &cfg, class);
            keywords.sort();
            keywords.dedup();
            let arity = if class == H { 3 } else { 2 };
            // Surnames and title words must be moderately selective;
            // conference names and years are unselective by nature.
            let selective = keywords.iter().all(|k| {
                let n = master.containing_list(k).len();
                if k.starts_with("surname") || k.starts_with('w') {
                    (2..=40).contains(&n)
                } else {
                    n > 0
                }
            });
            if keywords.len() != arity || !selective || out.iter().any(|q| q.keywords == keywords) {
                continue;
            }
            let q = Query { keywords, class };
            if accept(&q) {
                out.push(q);
                break;
            }
        }
    }
    out
}

/// `len` operations over `ranks` queries in Zipf(`s`) proportion: rank
/// `i` appears `round(len * p_i)` times (largest remainders make up the
/// total), then the block is shuffled by the seed. Exact proportions keep
/// the mix of cheap and dear shapes identical across seeds and blocks;
/// only the order is random. `s = 0` is the uniform sequence.
pub fn block(seed: u64, index: u64, ranks: usize, s: f64, len: usize) -> Vec<usize> {
    let exact: Vec<f64> = rank_shares(ranks, s)
        .iter()
        .map(|p| p * len as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut ops: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xb10c);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
    ops
}

/// An endless operation sequence made of consecutive [`block`]s.
pub struct Sequence {
    seed: u64,
    ranks: usize,
    s: f64,
    len: usize,
    next_block: u64,
    current: std::vec::IntoIter<usize>,
}

impl Sequence {
    pub fn new(seed: u64, ranks: usize, s: f64, len: usize) -> Self {
        Sequence {
            seed,
            ranks,
            s,
            len,
            next_block: 0,
            current: Vec::new().into_iter(),
        }
    }

    /// The `mix48` sequence of one client.
    pub fn mix48(seed: u64, client: u64) -> Self {
        Sequence::new(seed ^ (client << 40), LAYOUT.len(), ZIPF_S, BLOCK)
    }
}

impl Iterator for Sequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(op) = self.current.next() {
                return Some(op);
            }
            self.current =
                block(self.seed, self.next_block, self.ranks, self.s, self.len).into_iter();
            self.next_block += 1;
        }
    }
}

/// One ingest document with a probe query its content answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    pub xml: String,
    /// First author's surname and the rarest word of the first title.
    pub probe: [String; 2],
}

/// A seeded conference issue with three papers and two authors
/// (~0.6 KB). Titles draw from the dataset's vocabulary and surnames from
/// its author pool, so reader keywords match new documents.
pub fn document(seed: u64, index: u64) -> Document {
    let cfg = dataset();
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0xd0c5);
    let vocab = Vocabulary::new(cfg.vocabulary, 1.0);
    let conf = rng.gen_range(0..cfg.conferences);
    let year = 2003 + rng.gen_range(0..5);
    let surnames: Vec<String> = (0..2).map(|_| surname(&mut rng, &cfg)).collect();
    let mut xml = format!("<conference><cname>CONF{conf}</cname><year><yval>{year}</yval>");
    let mut rarest = String::new();
    for (p, by) in ["a0", "a0 a1", "a1"].iter().enumerate() {
        let refs: Vec<String> = by.split(' ').map(|a| format!("d{index}{a}")).collect();
        let title = vocab.sentence(&mut rng, 6);
        if p == 0 {
            let rank = |w: &str| w[1..].parse::<usize>().unwrap_or(0);
            rarest = title
                .split(' ')
                .max_by_key(|w| rank(w))
                .unwrap_or("w0")
                .to_owned();
        }
        xml.push_str(&format!(
            "<paper idrefs=\"{}\"><title>{title}</title><pages>{}-{}</pages>\
             <url>db/conf/c{conf}/n{index}/p{p}.html</url></paper>",
            refs.join(" "),
            p * 12 + 1,
            p * 12 + 12
        ));
    }
    xml.push_str("</year></conference>");
    for (a, surname) in surnames.iter().enumerate() {
        let first = NAMES[rng.gen_range(0..NAMES.len())];
        xml.push_str(&format!(
            "<author id=\"d{index}a{a}\"><aname>{first} {surname}</aname></author>"
        ));
    }
    Document {
        xml,
        probe: [surnames[0].clone(), rarest],
    }
}

/// The share of the traffic each of `ranks` Zipf(`s`) ranks receives.
pub fn rank_shares(ranks: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=ranks).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_has_the_stated_class_counts() {
        let count = |c: Class| LAYOUT.iter().filter(|&&x| x == c).count();
        assert_eq!(
            [count(A), count(S), count(T), count(H), count(C), count(Y)],
            [24, 6, 6, 4, 4, 4]
        );
    }

    #[test]
    fn layout_keeps_median_and_p95_inside_a_mode() {
        let shares = rank_shares(48, ZIPF_S);
        let share = |c: Class| -> f64 {
            LAYOUT
                .iter()
                .zip(&shares)
                .filter(|(&x, _)| x == c)
                .map(|(_, s)| s)
                .sum()
        };
        let cheap = share(A) + share(C) + share(Y);
        assert!(cheap > 0.80, "cheap shapes carry {cheap}");
        let dear = share(T);
        assert!((0.10..0.18).contains(&dear), "title pairs carry {dear}");
    }

    #[test]
    fn blocks_have_exact_proportions_and_are_pure() {
        let b = block(7, 0, 48, ZIPF_S, BLOCK);
        assert_eq!(b.len(), BLOCK);
        assert!((0..48).all(|r| b.contains(&r)), "every rank appears");
        let count = |blk: &[usize], r: usize| blk.iter().filter(|&&x| x == r).count();
        let other = block(8, 3, 48, ZIPF_S, BLOCK);
        assert!((0..48).all(|r| count(&b, r) == count(&other, r)));
        assert_ne!(b, other);
        assert_eq!(b, block(7, 0, 48, ZIPF_S, BLOCK));
        let uniform = block(1, 0, 40, 0.0, 80);
        assert!((0..40).all(|r| count(&uniform, r) == 2));
    }

    #[test]
    fn sequence_concatenates_blocks() {
        let seq: Vec<usize> = Sequence::new(5, 48, ZIPF_S, BLOCK)
            .take(2 * BLOCK)
            .collect();
        assert_eq!(seq[..BLOCK], block(5, 0, 48, ZIPF_S, BLOCK)[..]);
        assert_eq!(seq[BLOCK..], block(5, 1, 48, ZIPF_S, BLOCK)[..]);
    }

    #[test]
    fn documents_are_seeded_and_conform() {
        let d = document(3, 9);
        assert_eq!(d, document(3, 9));
        assert_ne!(d, document(4, 9));
        assert!(
            (450..800).contains(&d.xml.len()),
            "document is {} bytes",
            d.xml.len()
        );
        assert!(d.xml.contains(&d.probe[0]) && d.xml.contains(&d.probe[1]));
        let frag = xkw_graph::parse(&d.xml).expect("document parses");
        let tss = xkw_datagen::dblp::tss_graph();
        let targets = xkw_core::target::TargetGraph::build(&frag, &tss).expect("conforms");
        // conference + year + 3 papers + 2 authors
        assert_eq!(targets.len(), 7);
    }
}
