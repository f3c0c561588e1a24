//! # xkw-core — the XKeyword system (ICDE 2003)
//!
//! Keyword proximity search on XML graphs, as described in Hristidis,
//! Papakonstantinou, Balmin — *Keyword Proximity Search on XML Graphs*.
//! The pipeline (paper Fig. 7):
//!
//! **Load stage** ([`xkeyword::XKeyword::load`]): the decomposer inputs
//! the schema graph, TSS graph and XML graph and creates (1) the
//! [`master_index::MasterIndex`], (2) statistics, (3) target-object BLOBs,
//! and (4) a [`decompose::Decomposition`] of the TSS graph into fragments
//! materialized as *connection relations* in the embedded store.
//!
//! **Query stage**: the keyword discoverer fetches containing lists; the
//! [`cn`] generator produces all candidate networks up to size `Z`; they
//! are reduced to candidate TSS networks ([`ctssn`]); the
//! [`optimizer`] picks fragment tilings; the [`exec`] module evaluates
//! them (naive / cached / top-k / all-results / on-demand); the
//! [`presentation`] module renders MTTON lists or interactive
//! presentation graphs.

pub mod cn;
pub mod ctssn;
pub mod decompose;
pub mod engine;
pub mod error;
pub mod exec;
pub mod master_index;
pub mod optimizer;
pub mod postings;
pub mod presentation;
pub mod ranking;
pub mod relations;
pub mod semantics;
pub mod target;
pub mod tree;
pub mod xkeyword;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::cn::{Cn, CnGenerator};
    pub use crate::ctssn::Ctssn;
    pub use crate::decompose::{Decomposition, DecompositionKind, Fragment};
    pub use crate::engine::{
        EngineStats, ExplainReport, QueryEngine, QueryMetrics, QueryOutcome, QuerySpec, ReadView,
    };
    pub use crate::error::XkError;
    pub use crate::exec::{ExecMode, ExecRequest, Join, QueryResults};
    pub use crate::master_index::MasterIndex;
    pub use crate::postings::{PostingsFormat, PostingsFormatKind};
    pub use crate::presentation::PresentationGraph;
    pub use crate::relations::PhysicalPolicy;
    pub use crate::semantics::{Mtnn, Mtton};
    pub use crate::target::{TargetGraph, ToId};
    pub use crate::xkeyword::{DecompositionSpec, LoadOptions, XKeyword};
}
