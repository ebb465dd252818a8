//! Relational substrate for the `xmlprop` workspace.
//!
//! The paper propagates XML keys into relational **functional dependencies**
//! and uses them to refine the relational design (Examples 1.2 and 3.1), so
//! it needs the full classical FD toolbox plus a notion of relational
//! instances with nulls:
//!
//! * [`Value`], [`RelationSchema`], [`Relation`], [`Row`], [`Database`] —
//!   relation instances produced by shredding XML data,
//!   with `null` values for missing branches (Section 2, "semantics"),
//!   stored dictionary-encoded: each value once, rows as `u32` codes;
//! * [`Fd`] — functional dependencies, with two satisfaction notions:
//!   classical, and the paper's null-aware semantics of Section 3
//!   ([`Relation::satisfies_fd_paper`]);
//! * Armstrong reasoning: attribute [`closure`], [`implies`],
//!   [`covers_equivalent`] — thin facades over the [`intern`] module's
//!   linear-time counter-based engine ([`AttrUniverse`], [`AttrSet`],
//!   [`IFd`], [`FdIndex`]), which hot paths use directly;
//! * cover computation: [`minimize`] (the paper's `minimize` function of
//!   Section 5 — removes extraneous attributes and redundant FDs) and
//!   [`minimum_cover`];
//! * normalization: [`candidate_keys`], [`bcnf_decompose`],
//!   [`synthesize_3nf`], [`is_bcnf`], [`is_3nf`], and SQL DDL rendering for
//!   examples.
//!
//! # Example
//!
//! ```
//! use xmlprop_reldb::{closure, Fd, minimize};
//! use std::collections::BTreeSet;
//!
//! let fds = vec![
//!     Fd::parse("isbn -> title").unwrap(),
//!     Fd::parse("isbn, chapNum -> chapName").unwrap(),
//!     Fd::parse("isbn, chapNum -> title").unwrap(), // redundant
//! ];
//! let cover = minimize(&fds);
//! assert_eq!(cover.len(), 2);
//! let attrs: BTreeSet<String> = ["isbn", "chapNum"].iter().map(|s| s.to_string()).collect();
//! let cl = closure(&attrs, &cover);
//! assert!(cl.contains("chapName") && cl.contains("title"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chase;
mod closure;
mod cover;
mod fd;
pub mod intern;
mod normalize;
mod relation;
mod schema;
mod value;

pub use chase::{decomposition_is_lossless, is_dependency_preserving, is_lossless_join};
pub use closure::{closure, covers_equivalent, implies};
pub use cover::{is_nonredundant, minimize, minimum_cover, remove_trivial};
pub use fd::{Fd, ParseFdError};
pub use intern::{AttrId, AttrSet, AttrUniverse, FdIndex, IFd};
pub use normalize::{
    bcnf_decompose, candidate_keys, is_3nf, is_bcnf, project_fds, synthesize_3nf,
    DecomposedRelation, Decomposition,
};
pub use relation::{Database, Relation, Row};
pub use schema::RelationSchema;
pub use value::Value;

/// Convenience: builds the attribute set `{a1, …, an}` from string-likes.
pub fn attrs<I, S>(names: I) -> std::collections::BTreeSet<String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    names.into_iter().map(Into::into).collect()
}
