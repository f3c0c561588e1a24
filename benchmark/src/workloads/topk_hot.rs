//! `topk_hot`: in-process, closed loop, one client thread running
//! `engine().query_topk(q, 8, 10, cached, 1)` over `mix48` with a buffer
//! pool that holds the dataset and a warm plan cache. The paper's
//! Fig. 15a path and the serving hot path: optimizer instantiation, exec
//! top-k, the ranking threshold and master-index seeks do all the work.

use crate::common::{self, Params, Pass, Phases, PoolEntry};
use crate::gen::{Sequence, BLOCK, CACHED, K, POOL_FITS, Z};
use crate::report::Outcome;
use crate::staged::Staged;
use crate::stats::{self, pct_or_zero};
use crate::trace::Tracer;
use std::time::Instant;
use xkw_core::prelude::*;

/// Nominal operations per second of run, for sizing the traced pass.
const NOMINAL_OPS_PER_S: f64 = 200.0;

pub struct State {
    pub xk: XKeyword,
    pub pool: Vec<PoolEntry>,
}

pub fn setup(seed: u64) -> (State, Phases) {
    let (xk, generate_s, load_s) = common::load_instance(POOL_FITS, None);
    let t = Instant::now();
    let pool = common::mix48(&xk, seed);
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

/// One closed-loop pass: whole blocks of the sequence until `seconds`
/// have passed, or exactly `ops` operations when given. Every answer is
/// checked against the unpruned oracle.
pub fn closed_loop(
    st: &State,
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    ops: Option<usize>,
) -> Pass {
    let keywords: Vec<Vec<&str>> = st.pool.iter().map(PoolEntry::kw).collect();
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, rank) in Sequence::mix48(seed, 0).enumerate() {
        let done = match ops {
            Some(n) => i == n,
            None => i % BLOCK == 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let answer = st.xk.engine().query_topk(&keywords[rank], Z, K, CACHED, 1);
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match answer {
            Ok(o) if stats::digest_result_rows(&o.results.rows) == st.pool[rank].digest => {
                pass.delivered += o.results.rows.len() as u64;
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
        pass.report_end_to_end(&mut out, BLOCK);
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
    let mut answered = Vec::new();
    for (i, rank) in Sequence::mix48(p.seed, 0).take(ops).enumerate() {
        let entry = &st.pool[rank];
        let t = Instant::now();
        let results = staged.topk(&mut tr, i as u64, &entry.kw(), Z, K);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if stats::digest_result_rows(&results.rows) != entry.digest {
            out.failed += 1;
        }
        if i < st.pool.len() {
            let plans = st.xk.plans(&entry.kw(), Z);
            answered.push((plans, results.rows));
        }
    }
    common::report_staged(out, &tr, &staged);
    common::report_footprint(out, &st.xk);
    common::probe_buffer_fetch(out, &st.xk);
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
