//! `enum_all`: in-process, closed loop, one client thread running
//! `engine().query_all(q, 7, cached)` uniformly over a pool of author
//! pairs against a 64-page buffer pool (~720 pages touched). The paper's
//! Fig. 15b path: the exec join loops, the buffer pool's hit/evict/miss
//! path and MTTON dedup dominate; top-k pruning is bypassed and planning
//! is under 1%. It is also the larger-than-cache workload.

use crate::common::{self, Params, Pass, Phases};
use crate::gen::{self, Class, Query, Sequence, CACHED, POOL_SMALL, Z_ENUM};
use crate::report::Outcome;
use crate::staged::Staged;
use crate::stats::{self, pct_or_zero};
use crate::trace::Tracer;
use std::time::Instant;
use xkw_core::prelude::*;

/// Distinct author pairs in the pool.
const PAIRS: usize = 40;
const NOMINAL_OPS_PER_S: f64 = 30.0;
/// Operations per latency segment: five uniform rounds of the pool. The
/// measured pass runs whole segments.
const SEGMENT: usize = 5 * PAIRS;

struct Entry {
    query: Query,
    /// MTTON count and digest `query_all_hash` gave.
    mttons: usize,
    digest: u64,
}

struct State {
    xk: XKeyword,
    pool: Vec<Entry>,
}

fn setup(seed: u64) -> (State, Phases) {
    let (xk, generate_s, load_s) = common::load_instance(POOL_SMALL, None);
    let t = Instant::now();
    let mut oracle = Vec::new();
    // The hash-join answer is the oracle; planning it also leaves the
    // shape's skeletons in the plan cache, which is all the warm-up the
    // nested-loop path needs.
    let queries = gen::pool(seed, &[Class::AuthorPair; PAIRS], &xk, |q| {
        match xk.engine().query_all_hash(&q.kw(), Z_ENUM) {
            Ok(hash) if !hash.mttons.is_empty() => {
                oracle.push((hash.mttons.len(), stats::digest_mttons(&hash.mttons)));
                true
            }
            _ => false,
        }
    });
    let pool = queries
        .into_iter()
        .zip(oracle)
        .map(|(query, (mttons, digest))| Entry {
            query,
            mttons,
            digest,
        })
        .collect();
    let warm_s = t.elapsed().as_secs_f64();
    (
        State { xk, pool },
        Phases {
            generate_s,
            load_s,
            warm_s,
        },
    )
}

fn sequence(seed: u64) -> Sequence {
    Sequence::new(seed, PAIRS, 0.0, PAIRS)
}

fn closed_loop(st: &State, out: &mut Outcome, seed: u64, seconds: f64, ops: Option<usize>) -> Pass {
    let keywords: Vec<Vec<&str>> = st.pool.iter().map(|e| e.query.kw()).collect();
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, rank) in sequence(seed).enumerate() {
        let done = match ops {
            Some(n) => i == n,
            None => i % SEGMENT == 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let answer = st.xk.engine().query_all(&keywords[rank], Z_ENUM, CACHED);
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let want = &st.pool[rank];
        match answer {
            Ok(o)
                if o.mttons.len() == want.mttons
                    && stats::digest_mttons(&o.mttons) == want.digest =>
            {
                pass.delivered += o.mttons.len() as u64;
                pass.metrics.push(o.metrics);
            }
            _ => out.failed += 1,
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let st = common::repeat_setup(&mut out, p.setup_reps(), || setup(p.seed));
    if p.trace {
        traced(p, &st, &mut out);
    } else {
        let pass = closed_loop(&st, &mut out, p.seed, p.seconds, None);
        pass.report_end_to_end(&mut out, SEGMENT);
        common::fill_foreign_cells(&mut out, false, false);
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    out
}

fn traced(p: &Params, st: &State, out: &mut Outcome) {
    let ops = p.trace_ops(NOMINAL_OPS_PER_S);
    let evictions = st.xk.db.pool().evictions();
    let untraced = closed_loop(st, out, p.seed, 0.0, Some(ops));
    common::report_engine(
        out,
        &untraced.metrics,
        st.xk.db.pool().evictions() - evictions,
    );
    untraced.report_tails(out);

    let mut tr = Tracer::new();
    let mut staged = Staged::new(&st.xk);
    let mut op_ms = Vec::with_capacity(ops);
    for (i, rank) in sequence(p.seed).take(ops).enumerate() {
        let want = &st.pool[rank];
        let t = Instant::now();
        let mttons = staged.all(&mut tr, i as u64, &want.query.kw(), Z_ENUM);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if mttons.len() != want.mttons || stats::digest_mttons(&mttons) != want.digest {
            out.failed += 1;
        }
    }
    common::report_staged(out, &tr, &staged);
    common::report_footprint(out, &st.xk);
    common::probe_buffer_fetch(out, &st.xk);
    // Probe keys from a few answers' rows (the enumeration returns rows
    // by the thousand; ten thousand probes need only a handful).
    let answered: Vec<_> = st
        .pool
        .iter()
        .take(4)
        .map(|e| {
            let kw = e.query.kw();
            let rows = st.xk.query_all(&kw, Z_ENUM, CACHED).rows;
            (st.xk.plans(&kw, Z_ENUM), rows)
        })
        .collect();
    common::probe_store(out, &st.xk, &answered);
    common::finish_trace(
        out,
        p,
        &tr,
        &op_ms,
        pct_or_zero(&op_ms, 0.50),
        pct_or_zero(&untraced.ms, 0.50),
    );
}
