//! # xmlprop — Propagating XML Constraints to Relations
//!
//! A Rust reproduction of *"Propagating XML Constraints to Relations"*
//! (Davidson, Fan, Hara, Qin — ICDE 2003).
//!
//! This facade crate re-exports the public API of the workspace crates so
//! that applications can depend on a single crate:
//!
//! * [`xmltree`] — XML data model, parser, serializer, `value()`;
//! * [`xmlpath`] — the path language `ε | l | P/P | P//P`, evaluation and
//!   containment;
//! * [`xmlkeys`] — XML keys (class `K^A`), satisfaction and implication;
//! * [`reldb`] — relational schemas, instances, functional dependencies,
//!   covers and normalization;
//! * [`xmltransform`] — the XML-to-relations transformation language of the
//!   paper, table trees and shredding semantics;
//! * [`core`] — the paper's algorithms: `propagation`, `naive_minimum_cover`,
//!   `minimum_cover`, `GminimumCover`, and the end-to-end schema refinement
//!   pipeline;
//! * [`workload`] — synthetic generators reproducing the experimental setup
//!   of Section 6;
//! * [`pipeline`] — the parallel corpus pipeline: one shared prepared
//!   bundle, many documents fanned out over worker threads;
//! * [`server`] — the resident constraint server: hot-swappable prepared
//!   bundles behind the `xmlprop/1` line protocol;
//! * [`query`] — the key-aware query layer over the propagated design:
//!   select/project/join with a textual syntax, unique-key joins executed
//!   as hash lookups, FD-implied projections skipping deduplication.
//!
//! ## Streaming front end
//!
//! Key validation also runs **event-driven**, without building a
//! `Document` or a `DocIndex`: [`prelude::StreamKeyChecker::check`] runs
//! one [`xmltree::scan`] over raw XML text and steps compiled
//! path NFAs ([`prelude::StreamMatcher`]) through it — bounded by document
//! *depth* plus *open key contexts*, not document size, and proven
//! bit-for-bit equal to the DOM path.  The pipeline exposes it as
//! [`pipeline::CorpusBundle::stream_check`], and as
//! [`pipeline::CorpusBundle::stream_text`] with only `validate` on; the
//! CLI as `validate --stream`.  Shredding is defined over the whole tree and
//! always parses the document (`shred --stream` is accepted and runs the
//! same code as `shred`).
//!
//! ## One-shot facades vs. prepared state
//!
//! The free functions ([`core::propagation`], [`core::minimum_cover`], …)
//! and one-shot methods re-prepare their inputs on every call.  That is
//! the right trade-off for a single query, but **inside a loop or a
//! service prefer the `prepare`-shaped constructors** —
//! [`prelude::KeySet::prepare`], [`prelude::Transformation::prepare`],
//! [`prelude::PropagationEngine::prepare`],
//! [`prelude::CorpusBundle::prepare`] — which compile once and answer
//! many times.  The resident server is built exclusively on the prepared
//! layer.
//!
//! Errors across the CLI, the pipeline and the server share one type,
//! [`Error`], whose [`ErrorKind`] table maps each class to both a CLI
//! exit code and a protocol wire code.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `EXPERIMENTS.md` for the reproduction of the paper's evaluation.

#![forbid(unsafe_code)]

pub use xmlprop_core as core;
pub use xmlprop_pipeline as pipeline;
pub use xmlprop_query as query;
pub use xmlprop_reldb as reldb;
pub use xmlprop_server as server;
pub use xmlprop_workload as workload;
pub use xmlprop_xmlkeys as xmlkeys;
pub use xmlprop_xmlpath as xmlpath;
pub use xmlprop_xmltransform as xmltransform;
pub use xmlprop_xmltree as xmltree;

pub use xmlprop_pipeline::{Error, ErrorKind};

/// Commonly used items, re-exported for convenience.
///
/// Alongside the parsed surface types this includes the whole **prepared
/// layer** — the `Prepared*`/`*Index`/`*Plan` types, their scratch
/// counterparts and the [`PreparedState`](xmlprop_pipeline::PreparedState)
/// boundary — so services can name
/// every compiled artifact through one import.
pub mod prelude {
    pub use xmlprop_core::{
        minimum_cover, naive_minimum_cover, propagate_all, propagation, GMinimumCover,
        PropagationEngine, PropagationOutcome, RefinedDesign,
    };
    pub use xmlprop_pipeline::{
        CorpusBundle, CorpusOptions, CorpusResult, Error, ErrorKind, Jobs, PreparedState,
        Published, RequestScratch, SwapCell,
    };
    pub use xmlprop_query::{parse_query, Catalog, JoinKind, KeyedTable, Plan, Query};
    pub use xmlprop_reldb::{Fd, FdIndex, Relation, RelationSchema, Value};
    pub use xmlprop_xmlkeys::{
        KeyIndex, KeySet, PreparedKey, StreamCheckReport, StreamKeyChecker, XmlKey,
    };
    pub use xmlprop_xmlpath::{
        EvalScratch, LabelUniverse, MatchState, Path, PathExpr, StreamMatcher,
    };
    pub use xmlprop_xmltransform::{
        ShredPlan, ShredScratch, TableRule, TableTree, Transformation, TransformationPlan,
    };
    pub use xmlprop_xmltree::{DocIndex, Document, ElementBuilder, NodeId, NodeKind, StreamEvent};
}
