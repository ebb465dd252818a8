//! The path language of *"Propagating XML Constraints to Relations"*.
//!
//! Section 2 of the paper adopts a common fragment of regular expressions and
//! XPath:
//!
//! ```text
//! P ::= ε | l | P/P | P//P
//! ```
//!
//! where `ε` is the empty path, `l` a node label, `/` concatenation (XPath
//! *child*) and `//` XPath *descendant-or-self* (it matches any path,
//! including the empty one).
//!
//! This crate provides:
//!
//! * [`PathExpr`] — path expressions, with parsing (`"//book/chapter"`),
//!   display, concatenation and splitting (needed by the *target-to-context*
//!   inference rule for XML keys);
//! * [`Path`] — concrete paths (label sequences), with membership testing
//!   `ρ ∈ P`;
//! * language **containment** `P ⊑ Q` ([`PathExpr::contained_in`]), the
//!   workhorse of XML key implication;
//! * a **compiled layer** ([`LabelUniverse`] — re-exported from
//!   `xmlprop_xmltree` — and [`CompiledExpr`], built by
//!   [`CompiledExpr::compile`]) that interns labels and precomputes the
//!   block decomposition so repeated containment and word-membership
//!   queries are allocation-free id-slice comparisons;
//! * **evaluation** `n[[P]]`: [`CompiledExpr::evaluate`] over a prepared
//!   [`xmlprop_xmltree::DocIndex`] with reusable [`EvalScratch`] state;
//! * **incremental matching** for streaming key validation:
//!   [`StreamMatcher`] simulates a compiled expression as an NFA one label
//!   at a time, with `Copy` [`MatchState`] bitmasks that the key checker
//!   stacks per document depth;
//! * the **root-binding cache** of incremental maintenance:
//!   [`RootBindings`] keeps one result per binding of a path from the
//!   document root and, after an edit, recomputes only the bindings that
//!   are new or on the edit's dirty chain.  The incremental key validator
//!   and the incremental shredder both keep their per-binding state in it.
//!
//! # Example
//!
//! ```
//! use xmlprop_xmlpath::{Path, PathExpr};
//!
//! let p: PathExpr = "//book/chapter".parse().unwrap();
//! let q: PathExpr = "//chapter".parse().unwrap();
//! assert!(p.contained_in(&q));
//! assert!(!q.contained_in(&p));
//!
//! let rho = Path::from_labels(["book", "chapter"]);
//! assert!(p.matches(&rho));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bindings;
mod compile;
mod containment;
mod eval;
mod expr;
mod path;
mod stream;

pub use bindings::RootBindings;
pub use compile::{CompiledAtom, CompiledExpr, LabelId, LabelUniverse};
pub use containment::{contained_in, word_matches};
pub use eval::EvalScratch;
pub use expr::{Atom, ParsePathError, PathExpr};
pub use path::Path;
pub use stream::{MatchState, PathTooLong, StreamMatcher};
