//! The four workloads. Names are fixed; later issues cite them.

pub mod enum_all;
pub mod ingest_mixed;
pub mod serve_open;
pub mod topk_hot;
