//! The delta interface: first-class document edits.
//!
//! A [`Delta`] describes one edit to a [`Document`](crate::Document) —
//! inserting a subtree, removing a subtree, or rewriting the text of an
//! attribute/text node.  Edits are applied through
//! [`Document::apply`](crate::Document::apply), which validates the edit
//! and returns an [`AppliedDelta`] receipt; the receipt is what the
//! incremental maintenance layers ([`DocIndex::apply_delta`]
//! (crate::DocIndex::apply_delta), the key validator, the shred planner)
//! consume to patch their state without re-reading the whole document.
//!
//! The locality contract every incremental consumer relies on: after an
//! edit, the only nodes whose *subtree content* changed are those of the
//! [`AppliedDelta::dirty_chain`] (the [`AppliedDelta::dirty_node`] and its
//! ancestors), plus (for inserts) the freshly created nodes themselves.
//! Everything else — labels, text, subtree serializations, child lists —
//! is byte-identical to before the edit.

use crate::{Document, NodeId};
use std::fmt;

/// One edit to a document; applied via [`Document::apply`].
#[derive(Debug, Clone)]
pub enum Delta {
    /// Insert `fragment` as the `position`-th child of `parent`
    /// (`position == 0` prepends, `position == children(parent).count()`
    /// appends).
    InsertSubtree {
        /// The element that receives the new child.
        parent: NodeId,
        /// Index in `parent`'s child list at which the fragment root lands.
        position: usize,
        /// The subtree to insert.
        fragment: Fragment,
    },
    /// Detach the subtree rooted at `node` (which may be a single
    /// attribute or text node) from its parent.
    RemoveSubtree {
        /// Root of the subtree to remove; must not be the document root.
        node: NodeId,
    },
    /// Replace the text carried by an attribute or text node.
    SetText {
        /// The attribute or text node to rewrite.
        node: NodeId,
        /// The new text value.
        text: String,
    },
}

/// The payload of a [`Delta::InsertSubtree`].
#[derive(Debug, Clone)]
pub enum Fragment {
    /// An element subtree, carried as a standalone document whose root is
    /// the element to insert (e.g. built with
    /// [`Document::parse_str`](crate::Document::parse_str) or
    /// [`crate::ElementBuilder`]).
    Element(Document),
    /// A single attribute node `@name = value` (the paper treats
    /// attributes as labelled children, so they insert like any subtree).
    Attribute {
        /// Attribute name, with or without the leading `@`.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// A single text node.
    Text(String),
}

impl Fragment {
    /// Number of nodes this fragment will add to a document.
    pub fn len(&self) -> usize {
        match self {
            Fragment::Element(doc) => doc.len(),
            Fragment::Attribute { .. } | Fragment::Text(_) => 1,
        }
    }

    /// True if the fragment adds no nodes (never the case for the current
    /// variants; present for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of text this fragment will add to a document's text buffer.
    pub(crate) fn text_len(&self) -> usize {
        match self {
            Fragment::Element(doc) => doc
                .all_nodes()
                .into_iter()
                .filter_map(|n| doc.text_value(n))
                .map(str::len)
                .sum(),
            Fragment::Attribute { value, .. } => value.len(),
            Fragment::Text(text) => text.len(),
        }
    }
}

/// Receipt for a successfully applied [`Delta`]: exactly what the
/// incremental index/validator/shredder layers need to locate the dirty
/// region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedDelta {
    /// A subtree of `nodes` nodes rooted at `root` was inserted as the
    /// `position`-th child of `parent`.
    Insert {
        /// The element that received the new child.
        parent: NodeId,
        /// Child index at which the subtree root now sits.
        position: usize,
        /// The (freshly allocated) root of the inserted subtree.
        root: NodeId,
        /// Size of the inserted subtree.
        nodes: usize,
    },
    /// The subtree of `nodes` nodes rooted at `root` was detached from
    /// `parent`.
    Remove {
        /// The element the subtree was detached from.
        parent: NodeId,
        /// The (now detached) root of the removed subtree.
        root: NodeId,
        /// Size of the removed subtree.
        nodes: usize,
    },
    /// The text of `node` was replaced.
    SetText {
        /// The rewritten attribute or text node.
        node: NodeId,
    },
}

impl AppliedDelta {
    /// The deepest node that survives the edit and whose subtree content
    /// changed.  The full dirty set of surviving nodes is exactly this
    /// node plus its ancestors (see the module docs); nodes outside that
    /// chain kept their subtree content byte-for-byte.
    pub fn dirty_node(&self) -> NodeId {
        match *self {
            AppliedDelta::Insert { parent, .. } | AppliedDelta::Remove { parent, .. } => parent,
            AppliedDelta::SetText { node } => node,
        }
    }

    /// The dirty chain: the [`AppliedDelta::dirty_node`], then its
    /// ancestors up to the root — every surviving node whose subtree
    /// content the edit changed.
    pub fn dirty_chain<'a>(&self, doc: &'a Document) -> impl Iterator<Item = NodeId> + 'a {
        std::iter::successors(Some(self.dirty_node()), |&n| doc.parent(n))
    }

    /// Net node-count change of the edit.
    #[cfg(test)]
    pub(crate) fn nodes_added(&self) -> isize {
        match *self {
            AppliedDelta::Insert { nodes, .. } => nodes as isize,
            AppliedDelta::Remove { nodes, .. } => -(nodes as isize),
            AppliedDelta::SetText { .. } => 0,
        }
    }
}

/// Why a [`Delta`] could not be applied; see [`Document::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The referenced node is out of range for this document, or was
    /// already detached by an earlier removal.
    UnknownNode(NodeId),
    /// The document root cannot be removed.
    RemoveRoot,
    /// Insert position exceeds the parent's child count.
    PositionOutOfRange {
        /// The would-be parent.
        parent: NodeId,
        /// The requested child index.
        position: usize,
        /// The parent's actual child count.
        children: usize,
    },
    /// Subtrees can only be inserted under element nodes.
    InsertUnderNonElement(NodeId),
    /// `SetText` targets must be attribute or text nodes.
    SetTextOnElement(NodeId),
    /// The insert would put an element or text child before an attribute
    /// of `parent`, or an attribute after its element or text children.
    /// Serialization writes attributes first, so the tree would no longer
    /// read back the same.
    AttributeAfterContent {
        /// The would-be parent.
        parent: NodeId,
        /// The requested child index.
        position: usize,
    },
    /// The edit would grow the document's text buffer past `u32::MAX`
    /// bytes, the most its `u32` spans address (the dead spans of
    /// replaced text count).
    TextLimit,
    /// The edit would give a node the id `u32::MAX`, which the tree
    /// reserves for "no node" (detached nodes keep their ids).
    NodeLimit,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::UnknownNode(n) => {
                write!(f, "unknown or detached node {n}")
            }
            DeltaError::RemoveRoot => write!(f, "cannot remove the document root"),
            DeltaError::PositionOutOfRange {
                parent,
                position,
                children,
            } => write!(
                f,
                "position {position} out of range for {parent} ({children} children)"
            ),
            DeltaError::InsertUnderNonElement(n) => {
                write!(f, "cannot insert under non-element node {n}")
            }
            DeltaError::SetTextOnElement(n) => {
                write!(f, "cannot set text on element node {n}")
            }
            DeltaError::AttributeAfterContent { parent, position } => write!(
                f,
                "position {position} under {parent} would put an attribute after element or text content"
            ),
            DeltaError::TextLimit => {
                write!(f, "document text would exceed {} bytes", u32::MAX)
            }
            DeltaError::NodeLimit => {
                write!(f, "document would exceed {} node ids", u32::MAX)
            }
        }
    }
}

impl std::error::Error for DeltaError {}
