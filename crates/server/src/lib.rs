//! # xmlprop-server — the resident constraint server
//!
//! Validation, shredding, propagation and cover queries are corpus-shaped
//! and schema-heavy: the expensive work is preparing a
//! [`xmlprop_pipeline::CorpusBundle`], not answering any one request.
//! This crate keeps a prepared bundle **resident** behind a line protocol
//! (`std::net` TCP, no async runtime) so that many clients amortize one
//! preparation — and lets an admin `reload` swap in a new bundle *under
//! load* without ever blocking readers.
//!
//! The layers, bottom to top:
//!
//! * [`protocol`] — the versioned `xmlprop/1` wire format: length-framed
//!   request bodies, dot-terminated responses, `bundle=<epoch>` tags, and
//!   error wire codes from the one [`xmlprop_pipeline::ErrorKind`] table;
//! * [`render`] — the report renderers shared with the CLI's one-shot
//!   commands, making server payloads byte-identical to CLI stdout;
//! * [`server`] — [`ServerState`] (a [`xmlprop_pipeline::SwapCell`] of the
//!   bundle plus per-connection [`ScratchCache`]s) and the accept loop;
//! * [`client`] / [`script`] — the blocking client and the deterministic
//!   `--script` transcript driver CI goldens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod render;
pub mod script;
pub mod server;

pub use client::{Client, ClientConfig};
pub use protocol::{greeting, Request, Response, MAX_BODY_BYTES, PROTOCOL_VERSION};
pub use script::{parse_script, run_script, ScriptStep};
pub use server::{
    DrainReport, HealthCounters, ScratchCache, Server, ServerState, ServiceConfig, VerbCounters,
};
