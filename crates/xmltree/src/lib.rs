//! XML tree data model for the `xmlprop` workspace.
//!
//! This crate implements the XML data model used by the paper
//! *"Propagating XML Constraints to Relations"* (Davidson, Fan, Hara, Qin,
//! ICDE 2003).  A document is an ordered, node-labelled tree (Fig. 1 of the
//! paper) with three kinds of nodes:
//!
//! * **element** nodes, labelled with a tag name (`book`, `chapter`, ...);
//! * **attribute** nodes, labelled `@name` and carrying a text value;
//! * **text** nodes carrying character data.
//!
//! Node identity matters: XML keys are defined in terms of node identifiers,
//! not values, so the tree is stored in an arena and nodes are addressed by
//! [`NodeId`].  Node records own no heap memory: labels are slots of a
//! per-document label table, text values are spans of one per-document
//! text buffer and the tree shape is parent, child and sibling links (see
//! [`Document`]), so adding a node allocates nothing.
//!
//! The crate also provides:
//!
//! * a small builder API ([`ElementBuilder`]) for constructing documents in
//!   code (used pervasively by tests and examples);
//! * a non-validating XML **parser** ([`parse`] / [`Document::parse_str`]) and
//!   **serializer** — written from scratch because the paper ignores DTDs and
//!   schema languages entirely, so no external, DTD-aware machinery is needed;
//! * the [`Document::value`] function: the pre-order traversal serialization
//!   of a subtree that the paper's transformation language uses to populate
//!   relational fields (Example 2.5);
//! * the **compiled document engine** substrate: [`LabelUniverse`] (the
//!   string ↔ [`LabelId`] interning table shared with the compiled path/key
//!   layers) and [`DocIndex`] (per-node label ids, DFS document-order
//!   numbering with contiguous subtree ranges, label → nodes postings and
//!   interned text values, all built in one DFS pass);
//! * the **streaming front end**: [`scan`] pushes [`StreamEvent`]s
//!   (start/attribute/text/end, borrowed from the input) into a closure in
//!   one pass with `O(depth)` state.  The DOM [`parse`] and the streaming
//!   key checker of `xmlprop-xmlkeys` consume it, so both share one error
//!   table;
//! * the **delta interface** ([`Delta`] / [`Document::apply`] /
//!   [`AppliedDelta`]): first-class subtree insert/remove and text edits,
//!   with [`DocIndex::apply_delta`] patching a prepared index in place
//!   (renumbering only the affected range) instead of rebuilding it;
//! * the running example of the paper (Fig. 1) as [`sample::fig1`].
//!
//! # Example
//!
//! ```
//! use xmlprop_xmltree::{Document, NodeKind};
//!
//! let doc = Document::parse_str(
//!     r#"<db><book isbn="123"><title>XML</title></book></db>"#,
//! ).unwrap();
//! let root = doc.root();
//! assert_eq!(doc.label(root), "db");
//! let book = doc.children(root).next().unwrap();
//! assert_eq!(doc.label(book), "book");
//! let isbn = doc.attribute_node(book, "isbn").unwrap();
//! assert!(matches!(doc.kind(isbn), NodeKind::Attribute));
//! assert_eq!(doc.text_value(isbn), Some("123"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod delta;
mod document;
mod error;
mod hash;
mod index;
mod labels;
mod node;
mod parse;
pub mod sample;
mod serialize;
mod stream;

pub use builder::ElementBuilder;
pub use delta::{AppliedDelta, Delta, DeltaError, Fragment};
pub use document::Document;
pub use error::ParseError;
pub use hash::{FoldHasher, FoldState, SliceInterner};
pub use index::{ChildPositions, DocIndex};
pub use labels::{LabelId, LabelUniverse};
pub use node::{NodeId, NodeKind};
pub use parse::parse;
pub use serialize::{to_pretty_xml, to_xml};
pub use stream::{scan, StreamEvent, MAX_DEPTH};
