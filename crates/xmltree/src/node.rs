//! Node identifiers and node kinds.

use std::fmt;

/// Identifier of a node within a [`crate::Document`].
///
/// Node identifiers are dense indices into the document arena.  They are only
/// meaningful together with the document that produced them; comparing
/// identifiers across documents is a logic error (but is memory-safe).
///
/// The paper's semantics of XML keys (Definition 2.1) is defined in terms of
/// node identity — two nodes with equal values are still distinct nodes — so
/// `NodeId` implements `Eq`/`Hash`/`Ord` and is used wherever the paper talks
/// about "the set of nodes reached by a path expression".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this node in the document arena.
    ///
    /// Useful for diagnostics (the paper labels the nodes of Fig. 1 with small
    /// integers) and for building side tables indexed by node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index.
    ///
    /// Intended for tests and for tools that rebuild node references from
    /// serialized diagnostics; passing an out-of-range index yields a value
    /// that any `Document` accessor will panic on, it never causes UB.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a node in an XML tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node (`<book>...</book>`), labelled with its tag name.
    Element,
    /// An attribute node (`isbn="123"`), labelled `@isbn` in the paper's
    /// notation and carrying a string value.
    Attribute,
    /// A text node carrying character data (labelled `S` in Fig. 1).
    Text,
}

impl NodeKind {
    /// True if the node is an element.
    #[inline]
    pub fn is_element(self) -> bool {
        matches!(self, NodeKind::Element)
    }

    /// True if the node is an attribute.
    #[inline]
    pub fn is_attribute(self) -> bool {
        matches!(self, NodeKind::Attribute)
    }

    /// True if the node is a text node.
    #[inline]
    pub fn is_text(self) -> bool {
        matches!(self, NodeKind::Text)
    }
}

/// "No node" in a link field of [`NodeData`].  Node ids therefore stop at
/// `u32::MAX - 1`.
pub(crate) const NONE: u32 = u32::MAX;

/// Internal arena record for one node.  It owns no heap memory: the label
/// is a slot of the owning document's label table, the text a byte span
/// of its text buffer (see [`crate::Document`]), and the tree shape five
/// `u32` links, so pushing a node costs no allocation at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    /// Slot in the document's label table: element tag name, attribute
    /// name **including** the leading `@`, or `S` for text nodes (as in
    /// Fig. 1 of the paper).
    pub(crate) label: u32,
    /// `start..end` byte span of the node's text in the document's text
    /// buffer; empty for elements.
    pub(crate) text: (u32, u32),
    /// Parent, first and last child, next and previous sibling, as raw
    /// ids; [`NONE`] when absent.
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) prev_sibling: u32,
}

impl NodeData {
    /// A node under `parent` with no children or siblings yet.
    pub(crate) fn new(kind: NodeKind, label: u32, text: (u32, u32), parent: u32) -> Self {
        NodeData {
            kind,
            label,
            text,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            prev_sibling: NONE,
        }
    }
}

/// The node a raw link points at, if any.
#[inline]
pub(crate) fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Element.is_element());
        assert!(!NodeKind::Element.is_attribute());
        assert!(NodeKind::Attribute.is_attribute());
        assert!(!NodeKind::Attribute.is_text());
        assert!(NodeKind::Text.is_text());
        assert!(!NodeKind::Text.is_element());
    }
}
