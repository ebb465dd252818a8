//! The arena-backed XML document.

use crate::delta::{AppliedDelta, Delta, DeltaError, Fragment};
use crate::node::{link, NodeData, NodeId, NodeKind, NONE};
use crate::ParseError;
use std::collections::HashMap;
use std::fmt;

/// An XML document stored as an arena of nodes.
///
/// The document always has a single root element.  Nodes are addressed by
/// [`NodeId`]; the arena never reuses slots, so an identifier handed out
/// once always refers to the same node data.  [`Document::remove_subtree`]
/// *detaches* a subtree rather than freeing it: the detached nodes stay in
/// the arena as tombstones (their ids become invalid for navigation — a
/// logic error to keep using, never UB), [`Document::len`] counts only
/// attached nodes, and [`Document::arena_len`] bounds raw indices for
/// side tables.
///
/// Construction paths:
///
/// * [`Document::new`] + mutation methods ([`Document::add_element`],
///   [`Document::add_attribute`], [`Document::add_text`]);
/// * the fluent [`crate::ElementBuilder`];
/// * [`Document::parse_str`] for textual XML.
///
/// Post-construction edits go through [`Document::apply`] (insert/remove
/// subtree, set text — see [`Delta`]) or the underlying primitives
/// [`Document::remove_subtree`] / [`Document::set_text`].  Every mutation
/// bumps a monotonically increasing [`Document::epoch`] counter, which
/// prepared structures ([`crate::DocIndex`]) record and debug-assert
/// against: using an index built before the latest mutation is a logic
/// error unless the index was patched with
/// [`crate::DocIndex::apply_delta`].
///
/// # Document order
///
/// *Document order* is the DFS pre-order of the tree: a node precedes its
/// subtree, siblings follow each other in insertion order.  This is the
/// order [`Document::descendants_or_self`], [`Document::all_nodes`] and
/// every path-evaluation result use.  **`NodeId` order is not document
/// order in general**: ids are handed out in creation order, and mutation
/// may append a child to an *earlier* parent after later siblings exist
/// (the parser and [`crate::ElementBuilder`] never do, so for documents
/// built by them the two orders coincide).  Code that needs document
/// order must rank nodes by DFS position, e.g. through a
/// [`crate::DocIndex`], not by `NodeId`.
///
/// # Storage
///
/// A node record owns no heap memory, so adding a node allocates nothing
/// (beyond amortized growth of the arena and the text buffer):
///
/// * **tree shape** is five `u32` links per node — parent, first and last
///   child, next and previous sibling.  [`Document::children`] follows the
///   sibling chain, appending or unlinking a child is O(1), and a
///   positional insert walks the parent's children to its slot.  Node ids
///   stop at `u32::MAX - 1`, since `u32::MAX` is the "no node" link;
/// * **labels** live in a per-document *label table* that stores each
///   distinct label once; a node holds its slot.  Attribute labels are
///   interned with their `@` prefix (the table is keyed by the bare name,
///   so adding `isbn` never formats `@isbn`), and every text node shares
///   the one `S` slot.  [`crate::DocIndex::build`] interns each *slot* into
///   a [`crate::LabelUniverse`] once, not each node;
/// * **text** of attribute and text nodes is a byte span of one
///   per-document text buffer.  [`Document::set_text`] and subtree inserts
///   append to the buffer; a replaced value's old span stays behind as a
///   dead span (a text tombstone) until the document is dropped.  The
///   buffer is addressed by `u32` offsets, so a document holds at most
///   4 GiB of text, dead spans included: [`crate::parse`] rejects longer
///   input with a [`ParseError`] and [`Document::apply`] an edit that
///   would outgrow it with a [`DeltaError`]; the other mutation methods
///   panic, at this limit and at the node-id one.
///
/// # Equality
///
/// Equality is *structural identity* of the arenas: node by node the same
/// kind, label, text and links, plus the same root, live count and epoch
/// — what the corpus-generation reproducibility tests compare.  The order
/// of the label table and the dead spans of the text buffer are storage
/// details and do not affect it; two structurally equal trees built in
/// different insertion orders may still compare unequal, since their
/// `NodeId`s differ.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    /// Every distinct label, once; nodes hold slots into it.
    labels: LabelTable,
    /// The text of every attribute and text node, as spans; see the
    /// struct docs.
    text: String,
    root: NodeId,
    /// Number of attached (non-tombstone) nodes.
    live: usize,
    /// Mutation counter; see [`Document::epoch`].
    epoch: u64,
}

impl Document {
    /// Creates a document with a single root element labelled `root_label`.
    pub fn new(root_label: impl AsRef<str>) -> Self {
        let mut labels = LabelTable::default();
        let root_data = NodeData::new(
            NodeKind::Element,
            labels.plain(root_label.as_ref()),
            (0, 0),
            NONE,
        );
        Document {
            nodes: vec![root_data],
            labels,
            text: String::new(),
            root: NodeId(0),
            live: 1,
            epoch: 0,
        }
    }

    /// Parses a document from XML text.  See [`crate::parse`].
    pub fn parse_str(input: &str) -> Result<Self, ParseError> {
        crate::parse(input)
    }

    /// The root element of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of attached nodes in the document (elements, attributes
    /// and text).  Nodes detached by [`Document::remove_subtree`] are not
    /// counted.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the document contains only the root element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live <= 1
    }

    /// The arena size: one more than the largest raw [`NodeId::index`]
    /// ever handed out, *including* detached nodes.  Side tables indexed by
    /// raw node index must be sized by this, not [`Document::len`].
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// The mutation counter: starts at 0 and increases by one for every
    /// mutation ([`Document::add_element`] and friends,
    /// [`Document::remove_subtree`], [`Document::set_text`], one per
    /// [`Document::apply`]).  Prepared structures record the epoch they
    /// were built at and refuse (in debug builds) to serve a document that
    /// has moved on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if `id` addresses an attached node of this document: in range
    /// and reachable from the root (not detached by an earlier
    /// [`Document::remove_subtree`]).
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && self.is_attached(id)
    }

    /// Walks the parent chain to decide whether `id` is still reachable
    /// from the root.  O(depth).
    fn is_attached(&self, id: NodeId) -> bool {
        let mut cur = id;
        loop {
            if cur == self.root {
                return true;
            }
            match link(self.data(cur).parent) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    /// The kind of node `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.data(id).kind
    }

    /// The label of node `id`: tag name for elements, `@name` for attributes,
    /// `S` for text nodes (following Fig. 1 of the paper).
    #[inline]
    pub fn label(&self, id: NodeId) -> &str {
        self.labels.name(self.data(id).label)
    }

    /// The label-table slot of node `id` (crate-internal: lets
    /// [`crate::DocIndex::build`] intern each distinct label once).
    #[inline]
    pub(crate) fn label_slot(&self, id: NodeId) -> usize {
        self.data(id).label as usize
    }

    /// The number of label-table slots; every [`Document::label_slot`] is
    /// below it.
    pub(crate) fn label_slots(&self) -> usize {
        self.labels.names.len()
    }

    /// The label stored in a label-table slot.
    pub(crate) fn slot_label(&self, slot: usize) -> &str {
        &self.labels.names[slot]
    }

    /// The text carried by an attribute or text node, `None` for elements.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        match self.data(id).kind {
            NodeKind::Element => None,
            NodeKind::Attribute | NodeKind::Text => Some(self.text_of(self.data(id))),
        }
    }

    /// The text span of a node record, resolved against the text buffer
    /// (empty for elements).
    #[inline]
    fn text_of(&self, data: &NodeData) -> &str {
        let (start, end) = data.text;
        &self.text[start as usize..end as usize]
    }

    /// The parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.data(id).parent)
    }

    /// Iterator over the children of `id` in document order (attributes first,
    /// in insertion order, then elements/text in insertion order — matching
    /// the order in which they were added or parsed).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(link(self.data(id).first_child), |&c| {
            link(self.data(c).next_sibling)
        })
    }

    /// Walks the subtree rooted at `top` in document order along the
    /// links, with no stack: `visit` sees every node entered before its
    /// subtree and exited after it (crate-internal: the one traversal
    /// behind [`Document::descendants_or_self`] and [`crate::DocIndex`]).
    /// `top` may be detached.
    pub(crate) fn walk(&self, top: NodeId, mut visit: impl FnMut(Visit, NodeId)) {
        let mut node = top;
        loop {
            visit(Visit::Enter, node);
            if let Some(first) = link(self.data(node).first_child) {
                node = first;
                continue;
            }
            // A leaf: exit it and every ancestor it closes, up to the next
            // sibling.
            loop {
                visit(Visit::Exit, node);
                if node == top {
                    return;
                }
                let data = self.data(node);
                if let Some(next) = link(data.next_sibling) {
                    node = next;
                    break;
                }
                node = NodeId(data.parent);
            }
        }
    }

    /// Children of `id` carrying a particular label (e.g. `"chapter"` or
    /// `"@isbn"`).
    pub fn children_labelled<'a>(
        &'a self,
        id: NodeId,
        label: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id).filter(move |&c| self.label(c) == label)
    }

    /// All element children of `id`.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(|&c| self.kind(c).is_element())
    }

    /// The attribute node named `name` (with or without the leading `@`)
    /// attached to element `id`, if any.  When the element carries several
    /// attribute nodes with the same name (which the paper's model permits,
    /// even though well-formed XML does not) the first one is returned.
    pub fn attribute_node(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let want = name.strip_prefix('@').unwrap_or(name);
        self.children(id)
            .find(|&c| self.kind(c).is_attribute() && self.label(c).strip_prefix('@') == Some(want))
    }

    /// The string value of attribute `name` on element `id`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attribute_node(id, name)
            .and_then(|n| self.text_value(n))
    }

    /// Concatenated text content of all text-node descendants of `id`
    /// (the usual "string value" of an element).  For attribute and text
    /// nodes this is just their own text.
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text | NodeKind::Attribute => out.push_str(self.text_of(self.data(id))),
            NodeKind::Element => {
                for c in self.children(id) {
                    if !self.kind(c).is_attribute() {
                        self.collect_text(c, out);
                    }
                }
            }
        }
    }

    /// Pre-order traversal of the subtree rooted at `id`, including `id`.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.walk(id, |visit, n| {
            if visit == Visit::Enter {
                out.push(n);
            }
        });
        out
    }

    /// All nodes of the document in document order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.descendants_or_self(self.root)
    }

    /// Ancestors of `id` from its parent up to (and including) the root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// The depth of node `id` (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).len()
    }

    /// The sequence of labels on the path from the root to `id`, excluding the
    /// root's own label.  This is the "path of the node" used when checking
    /// whether a node is reached by a path expression rooted at the document
    /// root.
    pub fn path_from_root(&self, id: NodeId) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == self.root {
                break;
            }
            labels.push(self.label(n).to_string());
            cur = self.parent(n);
        }
        labels.reverse();
        labels
    }

    /// The sequence of labels on the path from ancestor `from` down to `to`,
    /// excluding `from`'s own label.  Returns `None` if `from` is not an
    /// ancestor-or-self of `to`.
    pub fn path_between(&self, from: NodeId, to: NodeId) -> Option<Vec<String>> {
        let mut labels: Vec<String> = Vec::new();
        let mut cur = to;
        loop {
            if cur == from {
                labels.reverse();
                return Some(labels);
            }
            labels.push(self.label(cur).to_string());
            cur = self.parent(cur)?;
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Appends `text` to the text buffer and returns its span.  Panics
    /// past the `u32` range; [`Document::apply`] checks first.
    fn push_text(&mut self, text: &str) -> (u32, u32) {
        assert!(
            fits_u32(self.text.len(), text.len()),
            "document text exceeds the u32 range"
        );
        let start = self.text.len() as u32;
        self.text.push_str(text);
        (start, self.text.len() as u32)
    }

    /// Creates a node of `kind` under `parent`, linked before its child
    /// `before` (last when `None`).  Attribute labels may come with or
    /// without their `@`.  Does not tick the epoch.
    fn insert_node(
        &mut self,
        parent: NodeId,
        before: Option<NodeId>,
        kind: NodeKind,
        label: &str,
        text: &str,
    ) -> NodeId {
        let (label, text) = match kind {
            NodeKind::Element => (self.labels.plain(label), (0, 0)),
            NodeKind::Attribute => (self.labels.attribute(label), self.push_text(text)),
            NodeKind::Text => (self.labels.plain(label), self.push_text(text)),
        };
        assert!(fits_u32(self.nodes.len(), 1), "document too large");
        let id = NodeId(self.nodes.len() as u32);
        let prev = match before {
            Some(b) => self.data(b).prev_sibling,
            None => self.data(parent).last_child,
        };
        let mut data = NodeData::new(kind, label, text, parent.0);
        data.prev_sibling = prev;
        data.next_sibling = before.map_or(NONE, |b| b.0);
        self.nodes.push(data);
        match link(prev) {
            Some(p) => self.data_mut(p).next_sibling = id.0,
            None => self.data_mut(parent).first_child = id.0,
        }
        match before {
            Some(b) => self.data_mut(b).prev_sibling = id.0,
            None => self.data_mut(parent).last_child = id.0,
        }
        self.live += 1;
        id
    }

    /// Creates a node of `kind` as the last child of `parent` and ticks
    /// the epoch: [`Document::add_element`] and friends, and the parser.
    pub(crate) fn append(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        label: &str,
        text: &str,
    ) -> NodeId {
        let id = self.insert_node(parent, None, kind, label, text);
        self.epoch += 1;
        id
    }

    /// Adds an element child labelled `label` under `parent` and returns its id.
    pub fn add_element(&mut self, parent: NodeId, label: impl AsRef<str>) -> NodeId {
        self.append(parent, NodeKind::Element, label.as_ref(), "")
    }

    /// Adds an attribute node `@name = value` under element `parent`; `name`
    /// may carry the leading `@` or not.
    pub fn add_attribute(
        &mut self,
        parent: NodeId,
        name: impl AsRef<str>,
        value: impl AsRef<str>,
    ) -> NodeId {
        self.append(parent, NodeKind::Attribute, name.as_ref(), value.as_ref())
    }

    /// Adds a text node under element `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> NodeId {
        self.append(parent, NodeKind::Text, "S", value.as_ref())
    }

    /// Detaches the subtree rooted at `node` from its parent and returns
    /// the number of nodes detached.  The unlinking is O(1); counting the
    /// subtree is not.  The arena slots are kept as
    /// tombstones ([`NodeId`]s of the detached nodes become invalid for
    /// navigation — a logic error, never UB).
    ///
    /// Panics when `node` is the root or already detached; the checked
    /// equivalent is [`Document::apply`] with [`Delta::RemoveSubtree`].
    pub fn remove_subtree(&mut self, node: NodeId) -> usize {
        assert!(node != self.root, "cannot remove the document root");
        assert!(
            self.contains(node),
            "cannot remove unknown or detached node {node}"
        );
        let NodeData {
            parent,
            prev_sibling: prev,
            next_sibling: next,
            ..
        } = *self.data(node);
        match link(prev) {
            Some(p) => self.data_mut(p).next_sibling = next,
            None => self.data_mut(NodeId(parent)).first_child = next,
        }
        match link(next) {
            Some(n) => self.data_mut(n).prev_sibling = prev,
            None => self.data_mut(NodeId(parent)).last_child = prev,
        }
        let data = self.data_mut(node);
        data.parent = NONE;
        data.prev_sibling = NONE;
        data.next_sibling = NONE;
        let mut removed = 0;
        self.walk(node, |visit, _| {
            if visit == Visit::Enter {
                removed += 1;
            }
        });
        self.live -= removed;
        self.epoch += 1;
        removed
    }

    /// Replaces the text carried by attribute or text node `node`.  The new
    /// text is appended to the text buffer; the old span stays behind dead.
    ///
    /// Panics when `node` is an element, unknown or detached; the checked
    /// equivalent is [`Document::apply`] with [`Delta::SetText`].
    pub fn set_text(&mut self, node: NodeId, text: impl AsRef<str>) {
        assert!(
            self.contains(node),
            "cannot set text on unknown or detached node {node}"
        );
        assert!(
            !self.kind(node).is_element(),
            "cannot set text on element node {node}"
        );
        let span = self.push_text(text.as_ref());
        self.data_mut(node).text = span;
        self.epoch += 1;
    }

    /// Applies one [`Delta`] to the document, validating it first, and
    /// returns the [`AppliedDelta`] receipt the incremental maintenance
    /// layers consume.  On error the document is unchanged.  Exactly one
    /// epoch tick per successful call, regardless of subtree size.
    ///
    /// Besides naming live nodes and a position in range, an insert must
    /// keep the parent's attributes ahead of its element and text
    /// children (the order [`crate::to_xml`] writes them in), and no edit
    /// may outgrow the `u32` text offsets or node ids.
    pub fn apply(&mut self, delta: &Delta) -> Result<AppliedDelta, DeltaError> {
        match delta {
            Delta::RemoveSubtree { node } => {
                let node = *node;
                if node == self.root {
                    return Err(DeltaError::RemoveRoot);
                }
                if !self.contains(node) {
                    return Err(DeltaError::UnknownNode(node));
                }
                let parent = NodeId(self.data(node).parent);
                let nodes = self.remove_subtree(node);
                Ok(AppliedDelta::Remove {
                    parent,
                    root: node,
                    nodes,
                })
            }
            Delta::SetText { node, text } => {
                let node = *node;
                if !self.contains(node) {
                    return Err(DeltaError::UnknownNode(node));
                }
                if self.kind(node).is_element() {
                    return Err(DeltaError::SetTextOnElement(node));
                }
                if !fits_u32(self.text.len(), text.len()) {
                    return Err(DeltaError::TextLimit);
                }
                self.set_text(node, text);
                Ok(AppliedDelta::SetText { node })
            }
            Delta::InsertSubtree {
                parent,
                position,
                fragment,
            } => {
                let parent = *parent;
                let position = *position;
                if !self.contains(parent) {
                    return Err(DeltaError::UnknownNode(parent));
                }
                if !self.kind(parent).is_element() {
                    return Err(DeltaError::InsertUnderNonElement(parent));
                }
                // An attribute may only follow attributes, and element or
                // text content may only precede content.
                let attribute = matches!(fragment, Fragment::Attribute { .. });
                let mut children = 0;
                let mut misplaced = false;
                for c in self.children(parent) {
                    let is_attribute = self.kind(c).is_attribute();
                    misplaced |= if children < position {
                        attribute && !is_attribute
                    } else {
                        !attribute && is_attribute
                    };
                    children += 1;
                }
                if position > children {
                    return Err(DeltaError::PositionOutOfRange {
                        parent,
                        position,
                        children,
                    });
                }
                if misplaced {
                    return Err(DeltaError::AttributeAfterContent { parent, position });
                }
                if !fits_u32(self.nodes.len(), fragment.len()) {
                    return Err(DeltaError::NodeLimit);
                }
                if !fits_u32(self.text.len(), fragment.text_len()) {
                    return Err(DeltaError::TextLimit);
                }
                let (root, nodes) = self.graft(parent, position, fragment);
                self.epoch += 1;
                Ok(AppliedDelta::Insert {
                    parent,
                    position,
                    root,
                    nodes,
                })
            }
        }
    }

    /// Copies `fragment` into the arena as the `position`-th child of
    /// `parent` (validated by the caller).  Returns the new subtree root
    /// and node count.  Does not tick the epoch.
    fn graft(&mut self, parent: NodeId, position: usize, fragment: &Fragment) -> (NodeId, usize) {
        let before = self.children(parent).nth(position);
        let root = match fragment {
            Fragment::Attribute { name, value } => {
                self.insert_node(parent, before, NodeKind::Attribute, name, value)
            }
            Fragment::Text(text) => self.insert_node(parent, before, NodeKind::Text, "S", text),
            Fragment::Element(frag) => {
                // Copy the fragment in document order so the new subtree is
                // internally DFS-ordered; remap fragment ids to fresh ids.
                // Labels re-intern into this document's table and text
                // appends to its buffer.
                let mut map = vec![NONE; frag.arena_len()];
                let mut root = self.root; // overwritten on the first node
                for n in frag.all_nodes() {
                    let (kind, label) = (frag.kind(n), frag.label(n));
                    let text = frag.text_value(n).unwrap_or("");
                    let id = match frag.parent(n) {
                        Some(p) => {
                            self.insert_node(NodeId(map[p.index()]), None, kind, label, text)
                        }
                        None => {
                            root = self.insert_node(parent, before, kind, label, text);
                            root
                        }
                    };
                    map[n.index()] = id.0;
                }
                root
            }
        };
        (root, fragment.len())
    }

    // ------------------------------------------------------------------
    // value() — the paper's field-population function
    // ------------------------------------------------------------------

    /// The `value` function of the paper's transformation semantics
    /// (Section 2, Example 2.5): a string representing the pre-order
    /// traversal of the subtree rooted at `id`.
    ///
    /// * For attribute and text nodes this is simply their text content —
    ///   which is what ends up in relational fields in all the paper's
    ///   examples.
    /// * For element nodes the serialization lists the node's attributes and
    ///   children recursively, e.g. the `chapter` node 11 of Fig. 1 yields
    ///   `(@number:1, name:(S:Introduction))`.
    pub fn value(&self, id: NodeId) -> String {
        match self.kind(id) {
            NodeKind::Attribute | NodeKind::Text => self.text_of(self.data(id)).to_string(),
            NodeKind::Element => {
                let mut out = String::new();
                self.value_children(id, &mut out);
                out
            }
        }
    }

    fn value_children(&self, id: NodeId, out: &mut String) {
        out.push('(');
        let mut first = true;
        for c in self.children(id) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            match self.kind(c) {
                NodeKind::Attribute => {
                    out.push_str(self.label(c));
                    out.push(':');
                    out.push_str(self.text_of(self.data(c)));
                }
                NodeKind::Text => {
                    out.push_str("S:");
                    out.push_str(self.text_of(self.data(c)));
                }
                NodeKind::Element => {
                    out.push_str(self.label(c));
                    out.push(':');
                    self.value_children(c, out);
                }
            }
        }
        out.push(')');
    }
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root
            && self.live == other.live
            && self.epoch == other.epoch
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.kind == b.kind
                    && a.parent == b.parent
                    && a.first_child == b.first_child
                    && a.last_child == b.last_child
                    && a.next_sibling == b.next_sibling
                    && a.prev_sibling == b.prev_sibling
                    && self.labels.name(a.label) == other.labels.name(b.label)
                    && self.text_of(a) == other.text_of(b)
            })
    }
}

impl Eq for Document {}

/// The two events of [`Document::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// The node is reached; its subtree follows.
    Enter,
    /// The node's subtree is done.
    Exit,
}

/// True if a count of `len` can grow by `extra` and stay within `u32`: the
/// bound on text-buffer offsets, and on the arena, whose ids must stay
/// below the no-link sentinel `u32::MAX`.
fn fits_u32(len: usize, extra: usize) -> bool {
    len.checked_add(extra)
        .is_some_and(|total| total <= u32::MAX as usize)
}

/// The per-document label table: each distinct label stored once, found
/// again by name.  Attribute slots are keyed by the bare name so that
/// interning one never builds the `@name` string after the first time.
#[derive(Clone, Default)]
struct LabelTable {
    /// Slot → label (attribute labels with their `@`).
    names: Vec<Box<str>>,
    /// Element and text labels → slot.
    plain: HashMap<Box<str>, u32>,
    /// Attribute names without the `@` → slot.
    attrs: HashMap<Box<str>, u32>,
}

impl LabelTable {
    fn name(&self, slot: u32) -> &str {
        &self.names[slot as usize]
    }

    /// The slot of element (or text) label `name`.
    fn plain(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.plain.get(name) {
            return slot;
        }
        let slot = self.push(name.into());
        self.plain.insert(name.into(), slot);
        slot
    }

    /// The slot of attribute `name`, given with or without its `@`.
    fn attribute(&mut self, name: &str) -> u32 {
        let bare = name.strip_prefix('@').unwrap_or(name);
        if let Some(&slot) = self.attrs.get(bare) {
            return slot;
        }
        let mut label = String::with_capacity(bare.len() + 1);
        label.push('@');
        label.push_str(bare);
        let slot = self.push(label.into_boxed_str());
        self.attrs.insert(bare.into(), slot);
        slot
    }

    fn push(&mut self, label: Box<str>) -> u32 {
        let slot = u32::try_from(self.names.len()).expect("label table overflow");
        self.names.push(label);
        slot
    }
}

impl fmt::Debug for LabelTable {
    /// The labels in slot order; the lookup maps repeat them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.names).finish()
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::serialize::to_xml(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Document {
        let mut d = Document::new("db");
        let book = d.add_element(d.root(), "book");
        d.add_attribute(book, "isbn", "123");
        let title = d.add_element(book, "title");
        d.add_text(title, "XML");
        d
    }

    #[test]
    fn navigation_basics() {
        let d = tiny();
        let root = d.root();
        assert_eq!(d.label(root), "db");
        assert_eq!(d.parent(root), None);
        let book = d.element_children(root).next().unwrap();
        assert_eq!(d.label(book), "book");
        assert_eq!(d.parent(book), Some(root));
        assert_eq!(d.attribute(book, "isbn"), Some("123"));
        assert_eq!(d.attribute(book, "@isbn"), Some("123"));
        assert_eq!(d.attribute(book, "missing"), None);
        let title = d.children_labelled(book, "title").next().unwrap();
        assert_eq!(d.string_value(title), "XML");
    }

    #[test]
    fn descendants_and_ancestors() {
        let d = tiny();
        let root = d.root();
        let all = d.descendants_or_self(root);
        assert_eq!(all.len(), d.len());
        assert_eq!(all[0], root);
        let title = all
            .iter()
            .copied()
            .find(|&n| d.label(n) == "title")
            .unwrap();
        let anc = d.ancestors(title);
        assert_eq!(anc.len(), 2); // book, db
        assert_eq!(anc[1], root);
        assert!(d.ancestors(root).is_empty());
        assert_eq!(d.depth(title), 2);
    }

    #[test]
    fn paths() {
        let d = tiny();
        let title = d
            .all_nodes()
            .into_iter()
            .find(|&n| d.label(n) == "title")
            .unwrap();
        assert_eq!(
            d.path_from_root(title),
            vec!["book".to_string(), "title".to_string()]
        );
        let book = d.parent(title).unwrap();
        assert_eq!(d.path_between(book, title), Some(vec!["title".to_string()]));
        assert_eq!(d.path_between(title, book), None);
        assert_eq!(d.path_between(title, title), Some(vec![]));
    }

    #[test]
    fn value_of_attribute_and_text() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        assert_eq!(d.value(isbn), "123");
        let title = d.children_labelled(book, "title").next().unwrap();
        let text = d.children(title).next().unwrap();
        assert_eq!(d.value(text), "XML");
    }

    #[test]
    fn value_of_element_is_preorder() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        assert_eq!(d.value(book), "(@isbn:123, title:(S:XML))");
    }

    #[test]
    fn string_value_skips_attributes() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        assert_eq!(d.string_value(book), "XML");
    }

    #[test]
    fn out_of_order_appends_split_id_and_document_order() {
        // DFS-style construction (parser, builder, straight-line mutation)
        // keeps NodeId order equal to document order...
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        doc.add_attribute(a, "x", "1");
        let b = doc.add_element(a, "b");
        doc.add_text(b, "t");
        doc.add_element(doc.root(), "c"); // under an ancestor of the newest node
        assert!(doc.all_nodes().is_sorted());
        // ...but appending under an earlier, non-ancestor parent splits the
        // two orders.
        let late = doc.add_element(a, "late");
        assert!(!doc.all_nodes().is_sorted());
        let order = doc.all_nodes();
        let rank = |n: NodeId| order.iter().position(|&m| m == n).unwrap();
        assert!(late > *order.last().unwrap());
        assert!(rank(late) < order.len() - 1, "late precedes c in doc order");
    }

    #[test]
    fn empty_document() {
        let d = Document::new("r");
        assert!(d.is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d.value(d.root()), "()");
    }

    #[test]
    fn remove_subtree_detaches_and_counts() {
        let mut d = tiny();
        let before = d.len();
        let book = d.element_children(d.root()).next().unwrap();
        let title = d.children_labelled(book, "title").next().unwrap();
        let removed = d.remove_subtree(title);
        assert_eq!(removed, 2); // title + its text node
        assert_eq!(d.len(), before - 2);
        assert_eq!(d.arena_len(), before, "arena keeps tombstone slots");
        assert!(!d.contains(title));
        assert!(d.contains(book));
        assert!(d.children_labelled(book, "title").next().is_none());
        assert_eq!(d.all_nodes().len(), d.len());
    }

    #[test]
    fn remove_subtree_handles_attributes() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        assert_eq!(d.remove_subtree(isbn), 1);
        assert_eq!(d.attribute(book, "isbn"), None);
        assert_eq!(d.value(book), "(title:(S:XML))");
    }

    #[test]
    fn set_text_rewrites_attributes_and_text() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        d.set_text(isbn, "999");
        assert_eq!(d.attribute(book, "isbn"), Some("999"));
        let title = d.children_labelled(book, "title").next().unwrap();
        let text = d.children(title).next().unwrap();
        d.set_text(text, "Relational");
        assert_eq!(d.string_value(book), "Relational");
    }

    #[test]
    fn attribute_labels_get_the_at_prefix_once() {
        let mut d = Document::new("r");
        let with = d.add_attribute(d.root(), "@isbn", "1");
        let without = d.add_attribute(d.root(), "isbn", "2");
        assert_eq!(d.label(with), "@isbn");
        assert_eq!(d.label(without), "@isbn");
        assert_eq!(
            d.label_slot(with),
            d.label_slot(without),
            "one slot per label"
        );
        let text = d.add_text(d.root(), "hello");
        assert_eq!(d.label(text), "S");
        assert_eq!(d.text_value(text), Some("hello"));
        assert_eq!(d.label_slots(), 3, "r, @isbn, S");
    }

    #[test]
    fn equality_ignores_dead_text_spans() {
        let mut d = tiny();
        let before = d.clone();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        d.set_text(isbn, "999");
        assert_ne!(d, before, "text and epoch differ");
        d.set_text(isbn, "123");
        // The same edits through another detour: equal epochs and text,
        // different dead spans.
        let mut want = before.clone();
        want.set_text(isbn, "a much longer detour");
        want.set_text(isbn, "123");
        assert_ne!(d.text, want.text);
        assert_eq!(d, want);
        assert_ne!(d, before, "the epoch moved on");
    }

    #[test]
    fn equality_ignores_label_table_order() {
        // The same tree, with the label table filled in two orders: `b`
        // first in one, `a` first in the other.
        let mut one = Document::new("r");
        let mut two = Document::new("r");
        two.labels.plain("b");
        two.labels.attribute("x");
        for d in [&mut one, &mut two] {
            let a = d.add_element(d.root(), "a");
            d.add_attribute(a, "x", "1");
            d.add_element(d.root(), "b");
        }
        assert_ne!(one.labels.names, two.labels.names);
        assert_eq!(one, two);
        let b = two.element_children(two.root()).nth(1).unwrap();
        two.add_text(b, "t");
        one.add_element(b, "t");
        assert_ne!(one, two, "kind and label still count");
    }

    #[test]
    #[should_panic(expected = "cannot remove the document root")]
    fn remove_root_panics() {
        let mut d = tiny();
        d.remove_subtree(d.root());
    }

    #[test]
    #[should_panic(expected = "element node")]
    fn set_text_on_element_panics() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        d.set_text(book, "nope");
    }

    #[test]
    fn epoch_ticks_once_per_mutation() {
        let mut d = Document::new("r");
        let e0 = d.epoch();
        let a = d.add_element(d.root(), "a");
        assert_eq!(d.epoch(), e0 + 1);
        d.add_attribute(a, "x", "1");
        d.add_text(a, "t");
        assert_eq!(d.epoch(), e0 + 3);
        let clone = d.clone();
        assert_eq!(clone.epoch(), d.epoch());
        d.remove_subtree(a);
        assert_eq!(d.epoch(), e0 + 4);
        let applied = d
            .apply(&crate::Delta::InsertSubtree {
                parent: d.root(),
                position: 0,
                fragment: crate::Fragment::Element(tiny()),
            })
            .unwrap();
        assert_eq!(d.epoch(), e0 + 5, "apply ticks once, not once per node");
        assert_eq!(applied.nodes_added(), tiny().len() as isize);
    }

    #[test]
    fn apply_validates_before_mutating() {
        use crate::{Delta, DeltaError, Fragment};
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        let epoch = d.epoch();
        let bytes = crate::to_xml(&d);
        let bogus = NodeId::from_index(9999);
        let cases: Vec<(Delta, DeltaError)> = vec![
            (
                Delta::RemoveSubtree { node: d.root() },
                DeltaError::RemoveRoot,
            ),
            (
                Delta::RemoveSubtree { node: bogus },
                DeltaError::UnknownNode(bogus),
            ),
            (
                Delta::SetText {
                    node: book,
                    text: "x".into(),
                },
                DeltaError::SetTextOnElement(book),
            ),
            (
                Delta::InsertSubtree {
                    parent: isbn,
                    position: 0,
                    fragment: Fragment::Text("x".into()),
                },
                DeltaError::InsertUnderNonElement(isbn),
            ),
            (
                Delta::InsertSubtree {
                    parent: book,
                    position: 99,
                    fragment: Fragment::Text("x".into()),
                },
                DeltaError::PositionOutOfRange {
                    parent: book,
                    position: 99,
                    children: 2,
                },
            ),
        ];
        for (delta, want) in cases {
            assert_eq!(d.apply(&delta).unwrap_err(), want);
        }
        assert_eq!(d.epoch(), epoch, "failed applies leave the epoch alone");
        assert_eq!(
            crate::to_xml(&d),
            bytes,
            "failed applies leave the tree alone"
        );
        // A node detached earlier is rejected like an unknown one.
        let mut d2 = d.clone();
        let title = d2.children_labelled(book, "title").next().unwrap();
        d2.remove_subtree(title);
        assert_eq!(
            d2.apply(&Delta::SetText {
                node: title,
                text: "x".into()
            })
            .unwrap_err(),
            DeltaError::UnknownNode(title),
        );
    }

    #[test]
    fn positional_insert_lands_where_asked() {
        use crate::{Delta, Fragment};
        let mut d = Document::new("db");
        let a = d.add_element(d.root(), "a");
        d.add_element(d.root(), "c");
        assert!(d.all_nodes().is_sorted());
        let applied = d
            .apply(&Delta::InsertSubtree {
                parent: d.root(),
                position: 1,
                fragment: Fragment::Element(Document::new("b")),
            })
            .unwrap();
        let crate::AppliedDelta::Insert { root, nodes, .. } = applied else {
            panic!("expected Insert receipt");
        };
        assert_eq!(nodes, 1);
        let labels: Vec<&str> = d.children(d.root()).map(|c| d.label(c)).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(d.parent(root), Some(d.root()));
        assert!(
            !d.all_nodes().is_sorted(),
            "a positional insert interleaves NodeId and document order"
        );
        // Removing a subtree keeps the surviving ids a subsequence of the
        // old order.
        let mut d2 = Document::new("db");
        let a2 = d2.add_element(d2.root(), "a");
        d2.add_text(a2, "t");
        d2.add_element(d2.root(), "c");
        assert!(d2.all_nodes().is_sorted());
        d2.remove_subtree(a2);
        assert!(d2.all_nodes().is_sorted());
        let _ = a; // ids stay comparable but unused hereafter
    }

    /// `<r><book isbn="1"><title>T</title></book></r>` and its `book`.
    fn book_with_isbn() -> (Document, NodeId) {
        let d = Document::parse_str(r#"<r><book isbn="1"><title>T</title></book></r>"#).unwrap();
        let book = d.element_children(d.root()).next().unwrap();
        (d, book)
    }

    /// Applies `delta`, which must fail with `AttributeAfterContent` and
    /// leave the document as it was.
    fn assert_misplaced(delta: crate::Delta) {
        let (mut d, book) = book_with_isbn();
        let before = d.clone();
        let crate::Delta::InsertSubtree { position, .. } = delta else {
            unreachable!("an insert")
        };
        assert_eq!(
            d.apply(&delta).unwrap_err(),
            DeltaError::AttributeAfterContent {
                parent: book,
                position
            }
        );
        assert_eq!(d, before);
    }

    #[test]
    fn content_cannot_be_inserted_before_an_attribute() {
        use crate::{Delta, Fragment};
        let (_, book) = book_with_isbn();
        assert_misplaced(Delta::InsertSubtree {
            parent: book,
            position: 0,
            fragment: Fragment::Element(Document::parse_str("<note>n</note>").unwrap()),
        });
        assert_misplaced(Delta::InsertSubtree {
            parent: book,
            position: 0,
            fragment: Fragment::Text("n".into()),
        });
        // Right after the attributes is fine.
        let (mut d, book) = book_with_isbn();
        d.apply(&Delta::InsertSubtree {
            parent: book,
            position: 1,
            fragment: Fragment::Element(Document::parse_str("<note>n</note>").unwrap()),
        })
        .unwrap();
        assert_eq!(d.value(book), "(@isbn:1, note:(S:n), title:(S:T))");
    }

    #[test]
    fn attributes_cannot_be_inserted_after_content() {
        use crate::{Delta, Fragment};
        let (_, book) = book_with_isbn();
        assert_misplaced(Delta::InsertSubtree {
            parent: book,
            position: 2,
            fragment: Fragment::Attribute {
                name: "lang".into(),
                value: "en".into(),
            },
        });
        // Before or after the other attribute is fine, and reads back the
        // same.
        for position in [0, 1] {
            let (mut d, book) = book_with_isbn();
            d.apply(&Delta::InsertSubtree {
                parent: book,
                position,
                fragment: Fragment::Attribute {
                    name: "lang".into(),
                    value: "en".into(),
                },
            })
            .unwrap();
            let reparsed = Document::parse_str(&crate::to_xml(&d)).unwrap();
            assert_eq!(d.value(book), reparsed.value(NodeId::from_index(1)));
        }
    }

    #[test]
    fn edits_past_the_u32_limits_are_refused() {
        // A 4 GiB document is too big for a test: check the arithmetic
        // both limits go through, then that `apply` consults it.
        let max = u32::MAX as usize;
        assert!(fits_u32(0, max));
        assert!(fits_u32(max - 1, 1));
        assert!(!fits_u32(max, 1));
        assert!(!fits_u32(1, max));
        assert!(!fits_u32(usize::MAX, 1), "no overflow on the way");
        // An arena of `u32::MAX` nodes holds ids up to `u32::MAX - 1`: the
        // next id would be the no-link sentinel.
        assert!(fits_u32(max - 1, 1));
        assert_eq!(NONE as usize, max);
        assert_eq!(
            DeltaError::TextLimit.to_string(),
            "document text would exceed 4294967295 bytes"
        );
        assert_eq!(
            DeltaError::NodeLimit.to_string(),
            "document would exceed 4294967295 node ids"
        );
    }

    #[test]
    fn apply_round_trips_through_serialization() {
        use crate::{Delta, Fragment};
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        d.apply(&Delta::SetText {
            node: isbn,
            text: "X&<\"'>".into(),
        })
        .unwrap();
        d.apply(&Delta::InsertSubtree {
            parent: book,
            position: 2,
            fragment: Fragment::Element(
                Document::parse_str("<chapter number=\"1\"><name>Intro</name></chapter>").unwrap(),
            ),
        })
        .unwrap();
        let title = d.children_labelled(book, "title").next().unwrap();
        d.apply(&Delta::RemoveSubtree { node: title }).unwrap();
        let xml = crate::to_xml(&d);
        let reparsed = Document::parse_str(&xml).unwrap();
        assert_eq!(crate::to_xml(&reparsed), xml, "serialize→parse round-trip");
        assert_eq!(reparsed.len(), d.len());
    }
}
