//! Presentation graphs (§3.2) and the on-demand expansion algorithm
//! (Fig. 13).
//!
//! For each candidate network C, XKeyword groups results into a
//! **presentation graph**: a graph over the target objects participating
//! in some MTTON of C, typed by CTSSN *role* (the paper: the same schema
//! type in two roles counts as two presentation types). At any moment
//! only a subgraph is displayed:
//!
//! * `PG0` is a single, arbitrarily chosen MTTON;
//! * **expansion** on a node of role N displays all distinct role-N
//!   nodes of every MTTON of C plus a minimal set of supporting nodes so
//!   that every displayed node lies on a complete MTTON inside the graph
//!   (properties (a)–(d) of §3.2; minimality is greedy, as the exact
//!   minimum is a set-cover problem);
//! * **contraction** on an expanded node keeps only that role-N node and
//!   the maximal supported remainder (exact per the definition).
//!
//! [`expand_on_demand`] is the production path (Fig. 13): instead of
//! materializing all MTTONs, it finds for each candidate target object a
//! *minimal connection* to the current graph by probing the (minimal ∪
//! inlined) connection relations, preferring completions that reuse
//! already-displayed nodes.

use crate::exec::{eval_anchored, ExecMode, ExecStats, PartialCache};
use crate::optimizer::CtssnPlan;
use crate::relations::RelationCatalog;
use crate::target::ToId;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;
use xkw_store::Db;

/// A displayed node: (role, target object).
pub type PgNode = (u8, ToId);

/// The displayed state of one candidate network's presentation graph.
#[derive(Debug, Clone)]
pub struct PresentationGraph {
    /// Which plan (candidate network) this graph presents.
    pub plan: usize,
    /// Displayed nodes.
    nodes: BTreeSet<PgNode>,
    /// Roles currently marked expanded.
    expanded: BTreeSet<u8>,
    /// The full MTTON assignments known to be displayed (each an
    /// assignment role→TO); maintained so support invariants are cheap.
    supported: BTreeSet<Vec<ToId>>,
}

impl PresentationGraph {
    /// Creates `PG0` from one initial MTTON assignment.
    pub fn initial(plan: usize, assignment: Vec<ToId>) -> Self {
        let nodes = assignment
            .iter()
            .enumerate()
            .map(|(r, &t)| (r as u8, t))
            .collect();
        PresentationGraph {
            plan,
            nodes,
            expanded: BTreeSet::new(),
            supported: BTreeSet::from([assignment]),
        }
    }

    /// Displayed nodes.
    pub fn nodes(&self) -> impl Iterator<Item = PgNode> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of displayed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing is displayed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether a node is displayed.
    pub fn contains(&self, n: PgNode) -> bool {
        self.nodes.contains(&n)
    }

    /// The MTTON assignments currently fully displayed.
    pub fn supported_mttons(&self) -> impl Iterator<Item = &Vec<ToId>> {
        self.supported.iter()
    }

    /// Roles marked expanded.
    pub fn expanded_roles(&self) -> impl Iterator<Item = u8> + '_ {
        self.expanded.iter().copied()
    }

    /// Displayed nodes of one role.
    pub fn nodes_of_role(&self, role: u8) -> Vec<ToId> {
        self.nodes
            .iter()
            .filter(|(r, _)| *r == role)
            .map(|&(_, t)| t)
            .collect()
    }

    /// **Exact** expansion per §3.2 given the full MTTON assignment list
    /// of the candidate network: displays every role-`role` node of every
    /// MTTON, supported by a (greedily) minimal set of extra nodes.
    pub fn expand_exact(&mut self, role: u8, all_mttons: &[Vec<ToId>]) {
        let required: HashSet<ToId> = all_mttons.iter().map(|m| m[role as usize]).collect();
        // Greedy support: for each required node not yet supported, pick
        // the MTTON containing it that adds the fewest new nodes.
        for &to in &required {
            let node = (role, to);
            let already = self.supported.iter().any(|m| m[role as usize] == to);
            if already && self.nodes.contains(&node) {
                continue;
            }
            let best = all_mttons
                .iter()
                .filter(|m| m[role as usize] == to)
                .min_by_key(|m| {
                    m.iter()
                        .enumerate()
                        .filter(|&(r, &t)| !self.nodes.contains(&(r as u8, t)))
                        .count()
                });
            if let Some(m) = best {
                for (r, &t) in m.iter().enumerate() {
                    self.nodes.insert((r as u8, t));
                }
                self.supported.insert(m.clone());
            }
        }
        self.expanded.insert(role);
    }

    /// **Exact** contraction per §3.2: keeps only `node` among its role,
    /// with the maximal supported remainder.
    pub fn contract(&mut self, node: PgNode) {
        let (role, keep) = node;
        // MTTONs that survive: displayed ones whose role binding == keep.
        let surviving: BTreeSet<Vec<ToId>> = self
            .supported
            .iter()
            .filter(|m| m[role as usize] == keep)
            .cloned()
            .collect();
        let mut nodes: BTreeSet<PgNode> = BTreeSet::new();
        for m in &surviving {
            for (r, &t) in m.iter().enumerate() {
                nodes.insert((r as u8, t));
            }
        }
        self.nodes = nodes;
        self.supported = surviving;
        self.expanded.remove(&role);
    }

    /// Checks the §3.2 invariant: every displayed node lies on a fully
    /// displayed MTTON.
    pub fn invariant_holds(&self) -> bool {
        self.nodes.iter().all(|&(r, t)| {
            self.supported.iter().any(|m| {
                m[r as usize] == t
                    && m.iter()
                        .enumerate()
                        .all(|(r2, &t2)| self.nodes.contains(&(r2 as u8, t2)))
            })
        })
    }
}

/// The on-demand expansion algorithm (Fig. 13): for every candidate
/// target object `u` of the expanded role, finds — through
/// connection-relation probes against `catalog` — a completion of the
/// candidate network anchored at `u` that reuses as many displayed nodes
/// as possible, and adds it to the graph.
///
/// `anchored_plan` must have been built with
/// [`crate::optimizer::build_plan_anchored`] so its driver *is* the role
/// being expanded. `universe` is the extension of the role's segment
/// (used for free roles; annotated roles use the plan's candidates).
///
/// Returns the number of nodes added and the probe statistics.
pub fn expand_on_demand(
    db: &Db,
    catalog: &RelationCatalog,
    anchored_plan: &CtssnPlan,
    pg: &mut PresentationGraph,
    universe: &[ToId],
    mode: ExecMode,
    cache: &mut PartialCache,
) -> (usize, ExecStats) {
    expand_on_demand_limited(
        db,
        catalog,
        anchored_plan,
        pg,
        universe,
        mode,
        cache,
        usize::MAX,
    )
}

/// [`expand_on_demand`] with a display cap: §3.2 — *"if the expanded
/// nodes are too many to fit in the screen then only the first 10 are
/// displayed"*. Stops after `limit` role nodes have been added/confirmed.
#[allow(clippy::too_many_arguments)]
pub fn expand_on_demand_limited(
    db: &Db,
    catalog: &RelationCatalog,
    anchored_plan: &CtssnPlan,
    pg: &mut PresentationGraph,
    universe: &[ToId],
    mode: ExecMode,
    cache: &mut PartialCache,
    limit: usize,
) -> (usize, ExecStats) {
    let role = anchored_plan.driver;
    let _span = xkw_obs::span!(
        "present.expand",
        role = role as u64,
        universe = universe.len()
    );
    let mut stats = ExecStats::default();
    let before = pg.len();
    let mut shown = pg.nodes_of_role(role).len();
    let candidates: Vec<ToId> = match &anchored_plan.candidates[role as usize] {
        Some(c) => c.iter().collect(),
        None => universe.to_vec(),
    };
    for u in candidates {
        if shown >= limit {
            break;
        }
        let already = pg.contains((role, u));
        // Find the completion through u with the fewest new nodes —
        // Fig. 13's l-loop ("check if u is connected ... with l extra
        // edges") realized as a direct minimization over completions.
        let mut best: Option<(usize, Vec<ToId>)> = None;
        let _ = eval_anchored(
            db,
            catalog,
            anchored_plan,
            u,
            mode,
            cache,
            &mut stats,
            &mut |r| {
                let fresh = r
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(rr, &t)| !pg.contains((rr as u8, t)))
                    .count();
                if best.as_ref().is_none_or(|(f, _)| fresh < *f) {
                    best = Some((fresh, r.assignment.clone()));
                }
                // A completion adding nothing new cannot be beaten.
                if best.as_ref().is_some_and(|(f, _)| *f == 0) {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        if let Some((_, m)) = best {
            for (r, &t) in m.iter().enumerate() {
                pg.nodes.insert((r as u8, t));
            }
            pg.supported.insert(m);
            if !already {
                shown += 1;
            }
        }
        // else: u participates in no result — ignored, per Fig. 13.
    }
    pg.expanded.insert(role);
    (pg.len() - before, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::CnGenerator;
    use crate::ctssn::Ctssn;
    use crate::decompose;
    use crate::exec::{execute, ExecMode, ExecRequest, Join};
    use crate::master_index::MasterIndex;
    use crate::optimizer::build_plan;
    use crate::relations::PhysicalPolicy;
    use crate::target::TargetGraph;
    use std::sync::Arc;
    use xkw_datagen::tpch;

    struct Fixture {
        db: Arc<Db>,
        catalog: Arc<RelationCatalog>,
        targets: TargetGraph,
        master: MasterIndex,
        plans: Vec<CtssnPlan>,
        results: Vec<(usize, Vec<ToId>)>,
    }

    fn fixture(keywords: &[&str]) -> Fixture {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Arc::new(Db::new(256));
        let catalog = Arc::new(RelationCatalog::materialize(
            &db,
            &targets,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "t",
        ));
        let achievable = master.achievable_sets(keywords);
        let gen = CnGenerator::new(tss.schema(), &achievable, keywords.len());
        let plans: Vec<CtssnPlan> = gen
            .generate(8)
            .iter()
            .map(|cn| Ctssn::from_cn(cn, &tss).unwrap())
            .filter_map(|c| build_plan(&c, &catalog, &master, keywords))
            .collect();
        let res = execute(
            &db,
            &catalog,
            &ExecRequest::all(&plans, Join::NestedLoop(ExecMode::Naive)),
        )
        .unwrap();
        let results = res
            .rows
            .iter()
            .map(|r| (r.plan, r.assignment.clone()))
            .collect();
        Fixture {
            db,
            catalog,
            targets,
            master,
            plans,
            results,
        }
    }

    /// The Fig. 2 plan: supplier-route Person—Lineitem—Part—Part with 4
    /// results.
    fn fig2_plan(f: &Fixture) -> (usize, Vec<Vec<ToId>>) {
        let mut by_plan: std::collections::HashMap<usize, Vec<Vec<ToId>>> =
            std::collections::HashMap::new();
        for (p, a) in &f.results {
            by_plan.entry(*p).or_default().push(a.clone());
        }
        let (plan, mttons) = by_plan
            .into_iter()
            .find(|(p, m)| f.plans[*p].ctssn.size() == 3 && m.len() == 4)
            .expect("the Figure 2 CN with 4 results");
        (plan, mttons)
    }

    #[test]
    fn pg0_expansion_contraction_cycle() {
        let f = fixture(&["us", "vcr"]);
        let (pi, mttons) = fig2_plan(&f);
        let mut pg = PresentationGraph::initial(pi, mttons[0].clone());
        assert!(pg.invariant_holds());
        let n_roles = f.plans[pi].role_count();
        assert_eq!(pg.len(), n_roles);

        // Expand the lineitem-ish role that distinguishes N1..N4: find a
        // role with 2 distinct values across the 4 MTTONs.
        let role = (0..n_roles as u8)
            .find(|&r| {
                let vals: HashSet<ToId> = mttons.iter().map(|m| m[r as usize]).collect();
                vals.len() == 2
            })
            .expect("a 2-valued role");
        pg.expand_exact(role, &mttons);
        assert!(pg.invariant_holds());
        assert_eq!(pg.nodes_of_role(role).len(), 2);
        assert!(pg.expanded_roles().any(|r| r == role));

        // Contract back on the original value.
        let keep = mttons[0][role as usize];
        pg.contract((role, keep));
        assert!(pg.invariant_holds());
        assert_eq!(pg.nodes_of_role(role), vec![keep]);
        assert!(!pg.expanded_roles().any(|r| r == role));
    }

    #[test]
    fn expansion_displays_all_role_nodes() {
        let f = fixture(&["us", "vcr"]);
        let (pi, mttons) = fig2_plan(&f);
        let mut pg = PresentationGraph::initial(pi, mttons[0].clone());
        for role in 0..f.plans[pi].role_count() as u8 {
            pg.expand_exact(role, &mttons);
        }
        // After expanding every role, every MTTON node is displayed.
        for m in &mttons {
            for (r, &t) in m.iter().enumerate() {
                assert!(pg.contains((r as u8, t)));
            }
        }
        assert!(pg.invariant_holds());
    }

    #[test]
    fn on_demand_matches_exact_node_set() {
        let f = fixture(&["us", "vcr"]);
        let (pi, mttons) = fig2_plan(&f);
        let plan = &f.plans[pi];

        let mut exact = PresentationGraph::initial(pi, mttons[0].clone());
        let mut ondemand = PresentationGraph::initial(pi, mttons[0].clone());
        let mut cache = PartialCache::new(1024);
        for role in 0..plan.role_count() as u8 {
            exact.expand_exact(role, &mttons);
            let anchored = crate::optimizer::build_plan_anchored(
                &plan.ctssn,
                &f.catalog,
                &f.master,
                &["us", "vcr"],
                role,
            )
            .unwrap();
            let universe = f.targets.tos_of(plan.ctssn.tree.roles[role as usize]);
            let (_, stats) = expand_on_demand(
                &f.db,
                &f.catalog,
                &anchored,
                &mut ondemand,
                universe,
                ExecMode::Cached { capacity: 1024 },
                &mut cache,
            );
            assert!(stats.probes > 0);
        }
        assert!(ondemand.invariant_holds());
        // Role-node sets agree (support sets may differ in which MTTONs
        // were chosen).
        for role in 0..plan.role_count() as u8 {
            let mut a = exact.nodes_of_role(role);
            let mut b = ondemand.nodes_of_role(role);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "role {role}");
        }
    }

    #[test]
    fn contraction_is_subgraph() {
        let f = fixture(&["us", "vcr"]);
        let (pi, mttons) = fig2_plan(&f);
        let mut pg = PresentationGraph::initial(pi, mttons[0].clone());
        for role in 0..f.plans[pi].role_count() as u8 {
            pg.expand_exact(role, &mttons);
        }
        let all: HashSet<PgNode> = pg.nodes().collect();
        let role = 0u8;
        let keep = mttons[1][0];
        pg.contract((role, keep));
        for n in pg.nodes() {
            assert!(all.contains(&n));
        }
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::exec::{execute, ExecMode, ExecRequest, Join};
    use crate::optimizer::build_plan_anchored;
    use crate::relations::PhysicalPolicy;
    use std::sync::Arc;
    use xkw_datagen::dblp::DblpConfig;

    #[test]
    fn expansion_respects_display_limit() {
        // A year with many papers: expanding the free Paper role of
        // Year—Paper—Author must stop at the limit.
        let data = DblpConfig {
            conferences: 1,
            years_per_conference: 1,
            papers_per_year: 25,
            authors: 10,
            authors_per_paper: 2,
            citations_per_paper: 0,
            vocabulary: 30,
            seed: 3,
        }
        .generate();
        let tss = data.tss;
        let graph = data.graph;
        let targets = crate::target::TargetGraph::build(&graph, &tss).unwrap();
        let master = crate::master_index::MasterIndex::build(&graph, &targets);
        let db = Arc::new(xkw_store::Db::new(128));
        let catalog = Arc::new(crate::relations::RelationCatalog::materialize(
            &db,
            &targets,
            crate::decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "t",
        ));
        // Query: the single year value + a frequent surname.
        let kws = ["1998", "surname0"];
        let achievable = master.achievable_sets(&kws);
        let gen = crate::cn::CnGenerator::new(tss.schema(), &achievable, 2);
        let plans: Vec<_> = gen
            .generate(6)
            .iter()
            .map(|cn| crate::ctssn::Ctssn::from_cn(cn, &tss).unwrap())
            .filter_map(|c| crate::optimizer::build_plan(&c, &catalog, &master, &kws))
            .collect();
        let res = execute(
            &db,
            &catalog,
            &ExecRequest::all(&plans, Join::NestedLoop(ExecMode::Naive)),
        )
        .unwrap();
        assert!(!res.rows.is_empty());
        // Pick a plan with a free Paper role and > 10 results.
        let paper_seg = tss
            .node_ids()
            .find(|&i| tss.node(i).name == "Paper")
            .unwrap();
        let (pi, free_paper_role) = plans
            .iter()
            .enumerate()
            .find_map(|(i, p)| {
                let role = (0..p.role_count() as u8).find(|&r| {
                    p.ctssn.tree.roles[r as usize] == paper_seg
                        && p.candidates[r as usize].is_none()
                })?;
                let n = res.rows.iter().filter(|r| r.plan == i).count();
                (n > 10).then_some((i, role))
            })
            .expect("a plan with a free Paper role and many results");
        let first = res.rows.iter().find(|r| r.plan == pi).unwrap();
        let mut pg = PresentationGraph::initial(pi, first.assignment.clone());
        let anchored =
            build_plan_anchored(&plans[pi].ctssn, &catalog, &master, &kws, free_paper_role)
                .unwrap();
        let mut cache = PartialCache::new(1024);
        let universe = targets.tos_of(paper_seg).to_vec();
        expand_on_demand_limited(
            &db,
            &catalog,
            &anchored,
            &mut pg,
            &universe,
            ExecMode::Cached { capacity: 1024 },
            &mut cache,
            10,
        );
        assert!(pg.invariant_holds());
        assert!(
            pg.nodes_of_role(free_paper_role).len() <= 10,
            "limit respected: {}",
            pg.nodes_of_role(free_paper_role).len()
        );
        assert!(pg.nodes_of_role(free_paper_role).len() >= 10);
    }
}
