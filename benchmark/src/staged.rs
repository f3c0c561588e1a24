//! The query pipeline assembled from the layers' public functions, with a
//! span at each layer boundary: discover → `CnGenerator::generate` →
//! `Ctssn::from_cn` → `build_skeleton` → `seek_candidates` +
//! `instantiate_with` → exec → MTTON dedup. It mirrors
//! `QueryEngine::prepare_with` + `run` step for step, keeps its own
//! per-epoch skeleton cache in place of the engine's plan cache, and every
//! caller checks its rows against the engine's.

use crate::trace::Tracer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xkw_core::cn::CnGenerator;
use xkw_core::ctssn::Ctssn;
use xkw_core::engine::ReadView;
use xkw_core::exec::{self, QueryResults};
use xkw_core::optimizer::{build_skeleton, instantiate_with, CtssnPlan, PlanSkeleton};
use xkw_core::prelude::*;

use crate::gen::CACHED;

type ShapeKey = (Vec<(u16, Vec<u16>)>, usize, usize);

/// Per-call samples of the cold planning layers (one span covers a whole
/// stage; the calls inside it are timed individually).
#[derive(Default)]
pub struct ColdSamples {
    /// `CnGenerator::generate`, one per cold shape, ms.
    pub cn_generate_ms: Vec<f64>,
    /// Candidate networks each `generate` returned.
    pub networks: Vec<f64>,
    /// `Ctssn::from_cn`, one per network, µs.
    pub ctssn_reduce_us: Vec<f64>,
    /// `build_skeleton`, one per CTSSN, ms.
    pub skeleton_ms: Vec<f64>,
}

pub struct Staged<'a> {
    xk: &'a XKeyword,
    epoch: u64,
    skeletons: HashMap<ShapeKey, Arc<Vec<PlanSkeleton>>>,
    pub cold: ColdSamples,
    /// Plans instantiated per query.
    pub plans: Vec<f64>,
    /// MTTONs after dedup, summed over queries.
    pub mttons: u64,
    /// Rows the executor examined, summed over queries.
    pub rows_examined: u64,
}

impl<'a> Staged<'a> {
    pub fn new(xk: &'a XKeyword) -> Self {
        Staged {
            xk,
            epoch: 0,
            skeletons: HashMap::new(),
            cold: ColdSamples::default(),
            plans: Vec::new(),
            mttons: 0,
            rows_examined: 0,
        }
    }

    /// Drops the cached skeletons, as a view install drops the engine's.
    pub fn forget_skeletons(&mut self) {
        self.skeletons.clear();
    }

    fn prepare(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        view: &ReadView,
        kw: &[&str],
        z: usize,
    ) -> Vec<CtssnPlan> {
        // A view install invalidates skeletons, as it clears the engine's
        // plan cache.
        if view.epoch != self.epoch {
            self.forget_skeletons();
            self.epoch = view.epoch;
        }
        let achievable = tr.span("bench.master_index.discover", op, |_| {
            for k in kw {
                assert!(
                    !view.master.containing_list(k).is_empty(),
                    "unknown keyword {k}"
                );
            }
            view.master.achievable_sets(kw)
        });
        let mut sig: Vec<(u16, Vec<u16>)> = achievable
            .iter()
            .map(|(node, sets)| {
                let mut v: Vec<u16> = sets.iter().copied().collect();
                v.sort_unstable();
                (node.0, v)
            })
            .collect();
        sig.sort_unstable();
        let key = (sig, kw.len(), z);
        let skeletons = match self.skeletons.get(&key) {
            Some(s) => s.clone(),
            None => {
                let tss = &self.xk.tss;
                let cold = &mut self.cold;
                let cns = tr.span("bench.cn.generate", op, |_| {
                    let t = Instant::now();
                    let cns = CnGenerator::new(tss.schema(), &achievable, kw.len()).generate(z);
                    cold.cn_generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    cold.networks.push(cns.len() as f64);
                    cns
                });
                let ctssns: Vec<Ctssn> = tr.span("bench.ctssn.reduce", op, |_| {
                    cns.iter()
                        .filter_map(|cn| {
                            let t = Instant::now();
                            let c = Ctssn::from_cn(cn, tss).ok();
                            cold.ctssn_reduce_us.push(t.elapsed().as_secs_f64() * 1e6);
                            c
                        })
                        .collect()
                });
                let built: Vec<PlanSkeleton> = tr.span("bench.optimizer.skeleton", op, |_| {
                    ctssns
                        .iter()
                        .filter_map(|c| {
                            let t = Instant::now();
                            let s = build_skeleton(c, &view.catalog);
                            cold.skeleton_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            s
                        })
                        .collect()
                });
                let built = Arc::new(built);
                self.skeletons.insert(key, built.clone());
                built
            }
        };
        let index = tr.span("bench.master_index.seek_build", op, |_| {
            view.master.seek_candidates(kw)
        });
        let plans: Vec<CtssnPlan> = tr.span("bench.optimizer.instantiate", op, |_| {
            skeletons
                .iter()
                .filter_map(|s| instantiate_with(s, &view.catalog, &index, None))
                .collect()
        });
        self.plans.push(plans.len() as f64);
        plans
    }

    fn present(&mut self, tr: &mut Tracer, op: u64, results: &QueryResults) -> Vec<Mtton> {
        let mttons = tr.span("bench.presentation.dedup", op, |_| results.mttons());
        self.mttons += mttons.len() as u64;
        self.rows_examined += results.stats.rows;
        mttons
    }

    /// The staged `query_topk(kw, z, k, cached, 1)`.
    pub fn topk(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        kw: &[&str],
        z: usize,
        k: usize,
    ) -> QueryResults {
        tr.span("bench.query", op, |tr| {
            let view = self.xk.engine().view();
            let plans = self.prepare(tr, op, &view, kw, z);
            let results = tr.span("bench.exec.topk", op, |_| {
                exec::try_topk_within_opts(
                    &self.xk.db,
                    &view.catalog,
                    &plans,
                    CACHED,
                    k,
                    1,
                    None,
                    true,
                )
                .expect("staged top-k evaluates")
            });
            self.present(tr, op, &results);
            results
        })
    }

    /// The staged `query_all(kw, z, cached)` with one exec thread.
    pub fn all(&mut self, tr: &mut Tracer, op: u64, kw: &[&str], z: usize) -> Vec<Mtton> {
        tr.span("bench.query", op, |tr| {
            let view = self.xk.engine().view();
            let plans = self.prepare(tr, op, &view, kw, z);
            let results = tr.span("bench.exec.enum", op, |_| {
                exec::try_all_plans(&self.xk.db, &view.catalog, &plans, CACHED)
                    .expect("staged enumeration evaluates")
            });
            self.present(tr, op, &results)
        })
    }
}
