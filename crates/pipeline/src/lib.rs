//! # xmlprop-pipeline — the parallel corpus pipeline
//!
//! The paper's workload is corpus-shaped: *many* documents are checked
//! against *one* key set Σ, shredded through *one* transformation, under
//! *one* propagated relational design.  The per-schema preparation (compiled
//! keys, shred plans, propagation engines) is therefore done once, in a
//! shared read-only [`CorpusBundle`], and the per-document work — building a
//! [`xmlprop_xmltree::DocIndex`], shredding, collecting key violations — is
//! fanned out over scoped worker threads by [`CorpusBundle::run`].
//!
//! Design points (see the module docs of [`bundle`] and [`run`] for
//! details):
//!
//! * **scoped threads, no `'static`** — workers borrow the bundle and the
//!   corpus through [`std::thread::scope`]; an `Arc` around the bundle is
//!   only needed by callers that outlive the scope;
//! * **chunked `Mutex` cursor + `mpsc` merge** — plain `std` primitives, no
//!   external dependencies;
//! * **deterministic output** — results are merged by document index, never
//!   by completion order, and [`CorpusBundle::run_sequential`] is the
//!   reference the equivalence property tests pin `run` against
//!   bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod catalog;
pub mod error;
pub mod faultline;
pub mod incremental;
pub mod run;
pub mod source;
pub mod state;
pub mod stream;
pub mod swap;

pub use bundle::{CorpusBundle, RuleCover};
pub use catalog::{Catalog, CatalogRelation};
pub use error::{Error, ErrorKind};
pub use faultline::{FaultAction, FaultStream, Faults};
pub use incremental::{parse_edit_script, EditReport, IncrementalDocument};
pub use run::{fan_out, CorpusOptions, CorpusResult, CorpusStats, DocOutcome, Jobs, MAX_JOBS};
pub use source::{parse_keys_text, parse_rules_text};
pub use state::{PreparedState, RequestScratch};
pub use swap::{Published, SwapCell};
