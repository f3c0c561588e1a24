//! # xkeyword — Keyword Proximity Search on XML Graphs
//!
//! Umbrella crate re-exporting the full XKeyword system (a reproduction of
//! Hristidis, Papakonstantinou, Balmin — ICDE 2003):
//!
//! * [`graph`] — XML graphs, schema graphs, TSS graphs ([`xkw_graph`]).
//! * [`store`] — the embedded relational storage engine ([`xkw_store`]).
//! * [`datagen`] — TPC-H-like and DBLP-like generators ([`xkw_datagen`]).
//! * [`core`] — master index, candidate networks, decompositions,
//!   optimizer, execution and presentation ([`xkw_core`]).
//!
//! See `examples/quickstart.rs` for a five-minute tour, or start here:
//!
//! ```
//! use xkeyword::core::prelude::*;
//! use xkeyword::core::exec::ExecMode;
//!
//! // Zero-configuration: schema and target segments inferred from XML.
//! let xk = XKeyword::load_xml(
//!     r#"<band id="b"><bname>Orbital</bname>
//!          <album><atitle>Snivilisation</atitle><by idref="b"/></album>
//!          <album><atitle>In Sides</atitle><by idref="b"/></album>
//!        </band>"#,
//!     LoadOptions::default(),
//! ).unwrap();
//!
//! let spec = QuerySpec::all(&["snivilisation", "sides"], 8,
//!                           ExecMode::Cached { capacity: 256 });
//! let res = xk.engine().query(&spec).unwrap();
//! let best = res.mttons.into_iter().min_by_key(|m| m.score).unwrap();
//! // The two albums connect through their shared band.
//! assert_eq!(best.tos.len(), 3);
//! ```

pub use xkw_core as core;
pub use xkw_datagen as datagen;
pub use xkw_graph as graph;
pub use xkw_obs as obs;
pub use xkw_serve as serve;
pub use xkw_store as store;

pub use xkw_core::prelude::*;
