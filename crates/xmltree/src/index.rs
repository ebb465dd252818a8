//! `DocIndex` — the prepared form of a document.
//!
//! Every string-walking algorithm over a [`Document`] (path evaluation
//! `n[[P]]`, table-rule shredding, key satisfaction) repeats the same three
//! pieces of work on every call: comparing labels as strings, re-discovering
//! subtree extents by stack traversal, and comparing text values as strings.
//! A `DocIndex` does that work once, in a single DFS pass.  One routine
//! indexes a subtree: a build grafts the whole tree into an empty index,
//! and [`DocIndex::apply_delta`] grafts an inserted subtree the same way.
//! The pass gives:
//!
//! * every node's label is interned into a shared [`LabelUniverse`] (the
//!   same universe the compiled path/key layers use, so a compiled
//!   expression's `LabelId`s compare directly against document nodes).
//!   A [`Document`] stores each distinct label once in its label table, so
//!   a graft interns each *distinct* label once — on first sight, in
//!   document order — and maps every other node through a slot → id
//!   vector, never hashing a label string per node.  The order of the
//!   document's label table therefore never shows in the index;
//! * nodes are numbered in **document order** (DFS pre-order).  The subtree
//!   of a node is the contiguous position range `pos..subtree_end(pos)`, so
//!   *descendants-or-self* is a range scan and any position-sorted result is
//!   duplicate-free and in document order by construction;
//! * a label → positions **posting index** lists, in document order, every
//!   node carrying a given label — the fast path for `//label` steps;
//! * the text of attribute and text nodes is interned into dense value ids,
//!   so key-tuple comparisons are integer comparisons instead of
//!   `Vec<String>` orderings.
//!
//! The index borrows nothing: after construction it answers all structural
//! questions on its own (children, subtrees, labels, value equality).  Only
//! operations that need actual *strings* — serializing a field value,
//! reporting a violation — go back to the `Document`, which must be the one
//! the index was built from (node counts are asserted where cheap; handing
//! an index a different document is a logic error).

use crate::delta::AppliedDelta;
use crate::document::Visit;
use crate::hash::SliceInterner;
use crate::labels::{LabelId, LabelUniverse};
use crate::node::NodeKind;
use crate::{Document, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "node carries no text value" (elements).
const NO_VALUE: u32 = u32::MAX;

/// The source of [`DocIndex::build_id`]s.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// The prepared form of a [`Document`]; see the module docs.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// Node arena index → DFS position.
    dfs_of: Vec<u32>,
    /// DFS position → node arena index.
    node_of: Vec<u32>,
    /// DFS position → exclusive end of the node's subtree range.
    end_at: Vec<u32>,
    /// DFS position → interned label.
    label_at: Vec<LabelId>,
    /// DFS position → node kind.
    kind_at: Vec<NodeKind>,
    /// DFS position → interned text value ([`NO_VALUE`] for elements).
    value_at: Vec<u32>,
    /// Label id → DFS positions of nodes carrying it, ascending.
    postings: Vec<Vec<u32>>,
    /// Text value → id: each distinct value's bytes once, in one arena,
    /// so [`DocIndex::apply_delta`] interns the values of edited and
    /// inserted nodes into the same numbering.  Ids are append-only and
    /// never recycled, so a value that disappears from the document keeps
    /// its id.
    values: SliceInterner<u8>,
    /// [`Document::epoch`] the index is current for.
    epoch: u64,
    /// See [`DocIndex::build_id`].
    build: u64,
}

impl DocIndex {
    /// Builds the index: an empty index, then one graft of the whole tree
    /// — the routine [`DocIndex::apply_delta`] runs for an inserted
    /// subtree.  Every label of the document is interned into `universe`
    /// once per distinct label (the document's label table maps nodes to
    /// it), not once per node.
    ///
    /// Labels already interned (e.g. by compiling a key set or a shred plan
    /// against the same universe first) keep their ids; ids are append-only,
    /// so the relative order of preparation does not matter.
    pub fn build(doc: &Document, universe: &mut LabelUniverse) -> Self {
        let mut index = DocIndex {
            dfs_of: Vec::new(),
            node_of: Vec::new(),
            end_at: Vec::new(),
            label_at: Vec::new(),
            kind_at: Vec::new(),
            value_at: Vec::new(),
            postings: Vec::new(),
            values: SliceInterner::default(),
            epoch: doc.epoch(),
            build: BUILDS.fetch_add(1, Ordering::Relaxed),
        };
        index.graft(doc, None, 0, doc.root(), universe);
        index
    }

    /// The number of nodes (equals [`Document::len`] of the indexed
    /// document).
    #[inline]
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// True if the indexed document contains only its root element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_of.len() <= 1
    }

    /// The DFS position (document-order rank) of a node.  The root is
    /// position 0.
    #[inline]
    pub fn position(&self, node: NodeId) -> u32 {
        self.dfs_of[node.index()]
    }

    /// The node at a DFS position.
    #[inline]
    pub fn node_at(&self, pos: u32) -> NodeId {
        NodeId::from_index(self.node_of[pos as usize] as usize)
    }

    /// The exclusive end of the subtree range of the node at `pos`: the
    /// descendants-or-self of that node are exactly the positions
    /// `pos..subtree_end(pos)`.
    #[inline]
    pub fn subtree_end(&self, pos: u32) -> u32 {
        self.end_at[pos as usize]
    }

    /// The label of the node at `pos`.
    #[inline]
    pub fn label_at(&self, pos: u32) -> LabelId {
        self.label_at[pos as usize]
    }

    /// The kind of the node at `pos`.
    #[inline]
    pub fn kind_at(&self, pos: u32) -> NodeKind {
        self.kind_at[pos as usize]
    }

    /// The interned text-value id of the node at `pos` (attribute and text
    /// nodes), or `None` for elements.  Two nodes have equal ids iff their
    /// text values are equal strings.
    #[inline]
    pub fn value_id_at(&self, pos: u32) -> Option<u32> {
        let v = self.value_at[pos as usize];
        (v != NO_VALUE).then_some(v)
    }

    /// The text values interned over the index's lifetime, by id: the
    /// bytes of a [`DocIndex::value_id_at`] id are `values().get(id)`.  Its
    /// `len()` is the number of distinct values in the document for a
    /// freshly built index; after [`DocIndex::apply_delta`] removals it is
    /// an upper bound (ids of vanished values are retained, never
    /// recycled).
    #[inline]
    pub fn values(&self) -> &SliceInterner<u8> {
        &self.values
    }

    /// The [`Document::epoch`] this index is current for: the epoch at
    /// [`DocIndex::build`] time, advanced by every
    /// [`DocIndex::apply_delta`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The identity of the value-id numbering: a fresh number for every
    /// [`DocIndex::build`] in the process, kept by `clone` and by
    /// [`DocIndex::apply_delta`], which only appends ids.  A cache keyed
    /// by [`DocIndex::value_id_at`] ids stays valid while it follows one
    /// index through its deltas, and must be cleared when the build id
    /// changes.  (Two clones patched with different deltas may append
    /// different values under the same new id, so such a cache must not
    /// alternate between them.)
    #[inline]
    pub fn build_id(&self) -> u64 {
        self.build
    }

    /// Debug-asserts that the index is current for `doc` — built from it
    /// (or patched up to date with [`DocIndex::apply_delta`]) and `doc` has
    /// not been mutated since.  Evaluation entry points call this so that
    /// using a stale index (document mutated after indexing) fails fast in
    /// debug builds instead of silently answering from outdated structure.
    #[inline]
    pub fn debug_assert_current(&self, doc: &Document) {
        debug_assert!(
            self.epoch == doc.epoch(),
            "stale DocIndex: built at document epoch {} but the document is at epoch {} — \
             rebuild the index or patch it with apply_delta",
            self.epoch,
            doc.epoch(),
        );
    }

    /// The children of the node at `pos`, as DFS positions in document
    /// order.  Derived from the subtree ranges alone: the first child sits
    /// at `pos + 1`, each next child at the previous child's subtree end.
    #[inline]
    pub fn children_at(&self, pos: u32) -> ChildPositions<'_> {
        ChildPositions {
            index: self,
            next: pos + 1,
            end: self.subtree_end(pos),
        }
    }

    /// The document-order positions of every node labelled `label`
    /// (ascending; empty for labels the document does not use).
    #[inline]
    pub fn postings(&self, label: LabelId) -> &[u32] {
        self.postings
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Patches the index in place for one applied delta instead of
    /// rebuilding it: only the affected subtree range is renumbered, and
    /// subtree ranges, label postings and text-value ids are shifted by
    /// offset arithmetic.
    ///
    /// `doc` must be the document the delta was applied to, `applied` the
    /// receipt [`Document::apply`] returned, and `universe` the label
    /// universe the index was built against (inserted subtrees may intern
    /// new labels into it).  The index must be current up to *exactly*
    /// this delta — current for the document as it was just before the
    /// edit (debug-asserted through the epoch counter).
    ///
    /// Cost: `O(1)` for a text edit; for structural edits
    /// `O(subtree + suffix + depth)` where *suffix* is the number of index
    /// positions after the edit point — pure integer shifting, no label or
    /// value re-interning outside the touched subtree.
    pub fn apply_delta(
        &mut self,
        doc: &Document,
        applied: &AppliedDelta,
        universe: &mut LabelUniverse,
    ) {
        debug_assert_eq!(
            self.epoch + 1,
            doc.epoch(),
            "apply_delta needs an index current up to exactly the applied delta",
        );
        match *applied {
            AppliedDelta::SetText { node } => {
                let pos = self.dfs_of[node.index()] as usize;
                let text = doc
                    .text_value(node)
                    .expect("SetText targets carry a text value");
                self.value_at[pos] = self.values.intern(text.as_bytes()).0;
            }
            AppliedDelta::Remove { parent, root, .. } => self.remove_range(doc, parent, root),
            AppliedDelta::Insert {
                parent,
                position,
                root,
                ..
            } => self.insert_range(doc, parent, position, root, universe),
        }
        self.epoch = doc.epoch();
    }

    /// Excises the (detached) subtree rooted at `root` from the numbering:
    /// positions after it shift down, ancestor subtree ranges shrink.
    fn remove_range(&mut self, doc: &Document, parent: NodeId, root: NodeId) {
        let p = self.dfs_of[root.index()] as usize;
        let e = self.end_at[p] as usize;
        let k = (e - p) as u32;
        // Postings: drop positions inside [p, e), shift the rest down.
        // Lists entirely before the edit are skipped by the binary search.
        let (pu, eu) = (p as u32, e as u32);
        for list in &mut self.postings {
            let lo = list.partition_point(|&x| x < pu);
            if lo == list.len() {
                continue;
            }
            let mut w = lo;
            for r in lo..list.len() {
                let x = list[r];
                if x < eu {
                    continue;
                }
                list[w] = x - k;
                w += 1;
            }
            list.truncate(w);
        }
        // Excise the columnar range; the suffix moves down.
        self.node_of.drain(p..e);
        self.label_at.drain(p..e);
        self.kind_at.drain(p..e);
        self.value_at.drain(p..e);
        self.end_at.drain(p..e);
        self.shift_suffix(doc, Some(parent), p, |end| end - k);
    }

    /// Grafts the freshly inserted subtree rooted at `root` (the
    /// `position`-th child of `parent`) into the numbering.
    fn insert_range(
        &mut self,
        doc: &Document,
        parent: NodeId,
        position: usize,
        root: NodeId,
        universe: &mut LabelUniverse,
    ) {
        // Where the subtree starts: right after the parent when it is the
        // first child, otherwise after the preceding sibling's subtree.
        let at = if position == 0 {
            self.dfs_of[parent.index()] + 1
        } else {
            let prev = doc
                .children(parent)
                .nth(position - 1)
                .expect("insert position was validated");
            self.end_at[self.dfs_of[prev.index()] as usize]
        } as usize;
        self.graft(doc, Some(parent), at, root, universe);
    }

    /// Indexes the subtree rooted at `root`, a child of `parent` (`None`
    /// for the document root), into positions `at..at + k` in one DFS
    /// pass: positions from `at` on shift up by the subtree's size `k`,
    /// and the subtree ranges of `parent` and its ancestors grow by it.
    /// Labels are interned once per document label slot, in document
    /// order, so the order of the document's label table never shows.
    ///
    /// The new nodes are appended to the columns and posting lists with
    /// their final positions and then rotated into place, which moves
    /// nothing when the suffix is empty (a build).
    fn graft(
        &mut self,
        doc: &Document,
        parent: Option<NodeId>,
        at: usize,
        root: NodeId,
        universe: &mut LabelUniverse,
    ) {
        let old = self.node_of.len();
        // The document has grown by the subtree since the index was current.
        let room = doc.len().saturating_sub(old);
        self.node_of.reserve(room);
        self.label_at.reserve(room);
        self.kind_at.reserve(room);
        self.value_at.reserve(room);
        self.end_at.reserve(room);
        let old_postings: Vec<usize> = self.postings.iter().map(Vec::len).collect();
        if self.dfs_of.len() < doc.arena_len() {
            self.dfs_of.resize(doc.arena_len(), 0);
        }
        {
            // A `move` closure over one pointer to the index, not one
            // reference per column: measurably faster per node.
            let (index, universe) = (&mut *self, &mut *universe);
            // Column index minus position while the subtree is appended.
            let lag = old - at;
            // Document label slot → universe id, filled on first sight.
            let mut slot_ids: Vec<Option<LabelId>> = vec![None; doc.label_slots()];
            doc.walk(root, move |visit, node| {
                let pos = (index.node_of.len() - lag) as u32;
                if visit == Visit::Exit {
                    let start = index.dfs_of[node.index()] as usize;
                    index.end_at[start + lag] = pos;
                    return;
                }
                index.dfs_of[node.index()] = pos;
                index.node_of.push(node.index() as u32);
                let slot = doc.label_slot(node);
                let label =
                    *slot_ids[slot].get_or_insert_with(|| universe.intern(doc.slot_label(slot)));
                if index.postings.len() <= label.index() {
                    index.postings.resize(label.index() + 1, Vec::new());
                }
                index.postings[label.index()].push(pos);
                index.label_at.push(label);
                index.kind_at.push(doc.kind(node));
                index.value_at.push(match doc.text_value(node) {
                    Some(text) => index.values.intern(text.as_bytes()).0,
                    None => NO_VALUE,
                });
                index.end_at.push(0);
            });
        }
        let k = self.node_of.len() - old;
        let grow = k as u32;
        // Labels interned after the document's (by later probe
        // compilation) get empty postings, so the common case is a direct
        // index.
        self.postings.resize(universe.len(), Vec::new());
        for (label, list) in self.postings.iter_mut().enumerate() {
            let before = old_postings.get(label).copied().unwrap_or(0);
            let added = list.len() - before;
            let lo = list[..before].partition_point(|&x| (x as usize) < at);
            for x in &mut list[lo..before] {
                *x += grow;
            }
            list[lo..].rotate_right(added);
        }
        self.node_of[at..].rotate_right(k);
        self.label_at[at..].rotate_right(k);
        self.kind_at[at..].rotate_right(k);
        self.value_at[at..].rotate_right(k);
        self.end_at[at..].rotate_right(k);
        self.shift_suffix(doc, parent, at + k, |end| end + grow);
    }

    /// The step an insert and a removal share once the columns hold their
    /// new contents: moves the subtree ends of `parent` and its ancestors
    /// and of every position from `from` on by `shift`, and renumbers
    /// `dfs_of` from `from` on.
    fn shift_suffix(
        &mut self,
        doc: &Document,
        parent: Option<NodeId>,
        from: usize,
        shift: impl Fn(u32) -> u32,
    ) {
        // Ancestors sit before the edit point, so their positions stay.
        let mut anc = parent;
        while let Some(a) = anc {
            let end = &mut self.end_at[self.dfs_of[a.index()] as usize];
            *end = shift(*end);
            anc = doc.parent(a);
        }
        for end in &mut self.end_at[from..] {
            *end = shift(*end);
        }
        for i in from..self.node_of.len() {
            self.dfs_of[self.node_of[i] as usize] = i as u32;
        }
    }
}

/// Iterator over the child positions of a node; see
/// [`DocIndex::children_at`].
#[derive(Debug, Clone)]
pub struct ChildPositions<'a> {
    index: &'a DocIndex,
    next: u32,
    end: u32,
}

impl Iterator for ChildPositions<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.next < self.end {
            let child = self.next;
            self.next = self.index.subtree_end(child);
            Some(child)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delta, DeltaError, ElementBuilder, Fragment};
    use std::collections::HashMap;

    fn tiny() -> Document {
        ElementBuilder::new("db")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "123")
                    .text_child("title", "XML"),
            )
            .child(ElementBuilder::new("book").attr("isbn", "234"))
            .build()
    }

    /// The node at every position, in position order.
    fn nodes_in_order(index: &DocIndex) -> Vec<NodeId> {
        (0..index.len() as u32).map(|p| index.node_at(p)).collect()
    }

    #[test]
    fn numbering_matches_document_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        assert_eq!(index.len(), doc.len());
        assert!(!index.is_empty());
        let in_order = nodes_in_order(&index);
        assert_eq!(in_order, doc.all_nodes());
        for (rank, &node) in in_order.iter().enumerate() {
            assert_eq!(index.position(node), rank as u32);
            assert_eq!(index.node_at(rank as u32), node);
        }
    }

    #[test]
    fn numbering_follows_document_order_not_node_ids() {
        // Mutation can append to an *earlier* parent, splitting NodeId order
        // from document order; the index must follow document order.
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        let b = doc.add_element(doc.root(), "b");
        let c = doc.add_element(a, "c"); // id 3, but precedes b in doc order
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        assert!(index.position(c) < index.position(b));
        let in_order = nodes_in_order(&index);
        assert_eq!(in_order, vec![doc.root(), a, c, b]);
        assert_eq!(in_order, doc.all_nodes());
    }

    #[test]
    fn subtree_ranges_cover_descendants_or_self() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            let pos = index.position(node);
            let range: Vec<NodeId> = (pos..index.subtree_end(pos))
                .map(|p| index.node_at(p))
                .collect();
            assert_eq!(range, doc.descendants_or_self(node), "subtree of {node}");
        }
    }

    #[test]
    fn children_iterate_in_document_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            let pos = index.position(node);
            let children: Vec<NodeId> = index.children_at(pos).map(|p| index.node_at(p)).collect();
            let expected: Vec<NodeId> = doc.children(node).collect();
            assert_eq!(children, expected, "children of {node}");
        }
    }

    #[test]
    fn postings_list_label_occurrences_in_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        let book = u.lookup("book").unwrap();
        let posts = index.postings(book);
        assert_eq!(posts.len(), 2);
        assert!(posts.windows(2).all(|w| w[0] < w[1]));
        for &p in posts {
            assert_eq!(index.label_at(p), book);
            assert_eq!(doc.label(index.node_at(p)), "book");
        }
        assert!(index.postings(LabelId(9999)).is_empty());
    }

    #[test]
    fn value_ids_agree_with_string_equality() {
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        doc.add_attribute(a, "x", "same");
        doc.add_attribute(a, "y", "same");
        doc.add_attribute(a, "z", "other");
        doc.add_text(a, "same");
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        let ids: Vec<Option<u32>> = doc
            .all_nodes()
            .into_iter()
            .map(|n| index.value_id_at(index.position(n)))
            .collect();
        // r, a are elements; @x, @y, @z, text follow in document order.
        assert_eq!(ids[0], None);
        assert_eq!(ids[1], None);
        assert_eq!(ids[2], ids[3], "equal values share an id");
        assert_ne!(ids[2], ids[4], "distinct values get distinct ids");
        assert_eq!(ids[2], ids[5], "text and attribute values share the pool");
        assert_eq!(index.values().len(), 2);
        assert_eq!(index.values().get(ids[2].unwrap()), b"same");
    }

    #[test]
    fn kinds_are_recorded() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            assert_eq!(index.kind_at(index.position(node)), doc.kind(node));
        }
    }

    /// What an index of `doc` must hold, read off the `Document` alone by
    /// recursion over [`Document::children`] (not [`Document::walk`], which
    /// the index build shares): per pre-order rank the node, its subtree
    /// end, label and text, and per label its ranks.
    #[derive(Default)]
    struct Oracle<'d> {
        order: Vec<NodeId>,
        end: Vec<u32>,
        labels: Vec<&'d str>,
        values: Vec<Option<&'d str>>,
        postings: HashMap<&'d str, Vec<u32>>,
    }

    impl<'d> Oracle<'d> {
        fn of(doc: &'d Document) -> Self {
            fn visit<'d>(doc: &'d Document, node: NodeId, o: &mut Oracle<'d>) {
                let rank = o.order.len();
                o.order.push(node);
                o.end.push(0);
                o.labels.push(doc.label(node));
                o.values.push(doc.text_value(node));
                o.postings
                    .entry(doc.label(node))
                    .or_default()
                    .push(rank as u32);
                for c in doc.children(node) {
                    visit(doc, c, o);
                }
                o.end[rank] = o.order.len() as u32;
            }
            let mut o = Oracle::default();
            visit(doc, doc.root(), &mut o);
            o
        }
    }

    /// Asserts that `index` answers every observable question about `doc`
    /// the way the [`Oracle`] does.  Text-value ids are compared as
    /// equivalence classes: two live nodes share an id iff their texts
    /// are equal.
    fn assert_matches_oracle(doc: &Document, index: &DocIndex, universe: &LabelUniverse) {
        let o = Oracle::of(doc);
        assert_eq!(index.len(), o.order.len(), "node count");
        let mut text_of: HashMap<u32, &str> = HashMap::new();
        let mut id_of: HashMap<&str, u32> = HashMap::new();
        for (pos, &node) in o.order.iter().enumerate() {
            let pos = pos as u32;
            assert_eq!(index.node_at(pos), node, "node at {pos}");
            assert_eq!(index.position(node), pos, "position of {node}");
            assert_eq!(index.subtree_end(pos), o.end[pos as usize], "end at {pos}");
            let label = universe.name(index.label_at(pos));
            assert_eq!(label, o.labels[pos as usize], "label at {pos}");
            assert_eq!(index.kind_at(pos), doc.kind(node), "kind at {pos}");
            match (index.value_id_at(pos), o.values[pos as usize]) {
                (None, None) => {}
                (Some(id), Some(text)) => {
                    assert_eq!(*text_of.entry(id).or_insert(text), text, "value at {pos}");
                    assert_eq!(*id_of.entry(text).or_insert(id), id, "value at {pos}");
                }
                (id, text) => panic!("value presence diverges at {pos}: {id:?} vs {text:?}"),
            }
        }
        for (id, name) in universe.names().iter().enumerate() {
            let want = o.postings.get(name.as_str()).map_or(&[][..], Vec::as_slice);
            assert_eq!(
                index.postings(LabelId(id as u32)),
                want,
                "postings for {name}"
            );
        }
    }

    /// Asserts that a patched index and a fresh build over the same
    /// (already extended) universe both match the [`Oracle`], and so
    /// answer every observable question alike.
    fn assert_matches_fresh(doc: &Document, index: &DocIndex, universe: &LabelUniverse) {
        index.debug_assert_current(doc);
        assert_matches_oracle(doc, index, universe);
        let mut u = universe.clone();
        let fresh = DocIndex::build(doc, &mut u);
        assert_eq!(
            u.len(),
            universe.len(),
            "the patched index knew every label"
        );
        assert_matches_oracle(doc, &fresh, &u);
    }

    #[test]
    fn apply_delta_matches_fresh_build_over_a_script() {
        use crate::{Delta, Fragment};
        let mut doc = crate::sample::fig1();
        let mut u = LabelUniverse::new();
        let mut index = DocIndex::build(&doc, &mut u);
        let books: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "book")
            .collect();
        let isbn = doc.attribute_node(books[0], "isbn").unwrap();
        let chapter = doc.children_labelled(books[1], "chapter").next().unwrap();
        let script: Vec<Delta> = vec![
            Delta::SetText {
                node: isbn,
                text: "777".into(),
            },
            // New label + new value, positional insert in the middle.
            Delta::InsertSubtree {
                parent: books[0],
                position: 1,
                fragment: Fragment::Element(
                    Document::parse_str("<appendix number=\"A\"><name>Maps</name></appendix>")
                        .unwrap(),
                ),
            },
            Delta::RemoveSubtree { node: chapter },
            Delta::InsertSubtree {
                parent: books[1],
                position: 0,
                fragment: Fragment::Attribute {
                    name: "lang".into(),
                    value: "en".into(),
                },
            },
            Delta::SetText {
                node: isbn,
                text: "123".into(), // back to a previously interned value
            },
            Delta::InsertSubtree {
                parent: books[1],
                position: 2,
                fragment: Fragment::Text("trailing".into()),
            },
        ];
        for delta in &script {
            let applied = doc.apply(delta).unwrap();
            index.apply_delta(&doc, &applied, &mut u);
            assert_matches_fresh(&doc, &index, &u);
        }
    }

    #[test]
    fn apply_delta_removal_at_document_tail() {
        use crate::Delta;
        // Removing the last subtree exercises the empty-suffix path.
        let mut doc = tiny();
        let mut u = LabelUniverse::new();
        let mut index = DocIndex::build(&doc, &mut u);
        let last_book = doc.element_children(doc.root()).nth(1).unwrap();
        let applied = doc
            .apply(&Delta::RemoveSubtree { node: last_book })
            .unwrap();
        index.apply_delta(&doc, &applied, &mut u);
        assert_matches_fresh(&doc, &index, &u);
    }

    #[test]
    fn build_ids_are_per_build_and_survive_deltas_and_clones() {
        use crate::Delta;
        let mut doc = tiny();
        let mut u = LabelUniverse::new();
        let mut index = DocIndex::build(&doc, &mut u);
        let build = index.build_id();
        assert_ne!(DocIndex::build(&doc, &mut u).build_id(), build);
        assert_eq!(index.clone().build_id(), build);
        let last_book = doc.element_children(doc.root()).nth(1).unwrap();
        let applied = doc
            .apply(&Delta::RemoveSubtree { node: last_book })
            .unwrap();
        index.apply_delta(&doc, &applied, &mut u);
        assert_eq!(index.build_id(), build);
    }

    #[test]
    #[should_panic(expected = "stale DocIndex")]
    #[cfg(debug_assertions)]
    fn stale_index_is_debug_asserted() {
        let mut doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        doc.add_element(doc.root(), "late");
        index.debug_assert_current(&doc);
    }

    /// A standalone copy of the subtree rooted at element `node`.
    fn subtree(doc: &Document, node: NodeId) -> Document {
        fn fill(doc: &Document, from: NodeId, out: &mut Document, to: NodeId) {
            for c in doc.children(from) {
                let text = doc.text_value(c).unwrap_or("");
                match doc.kind(c) {
                    NodeKind::Element => {
                        let e = out.add_element(to, doc.label(c));
                        fill(doc, c, out, e);
                    }
                    NodeKind::Attribute => {
                        out.add_attribute(to, doc.label(c), text);
                    }
                    NodeKind::Text => {
                        out.add_text(to, text);
                    }
                }
            }
        }
        let mut out = Document::new(doc.label(node));
        let root = out.root();
        fill(doc, node, &mut out, root);
        out
    }

    /// The same tree as `doc`, rebuilt by grafting the root's children
    /// last to first at position 0, so labels enter the copy's label table
    /// in a different order.
    fn regraft_reversed(doc: &Document) -> Document {
        use crate::{Delta, Fragment};
        let mut copy = Document::new(doc.label(doc.root()));
        let children: Vec<NodeId> = doc.children(doc.root()).collect();
        for &c in children.iter().rev() {
            let text = doc.text_value(c).unwrap_or("").to_string();
            let fragment = match doc.kind(c) {
                NodeKind::Element => Fragment::Element(subtree(doc, c)),
                NodeKind::Attribute => Fragment::Attribute {
                    name: doc.label(c).to_string(),
                    value: text,
                },
                NodeKind::Text => Fragment::Text(text),
            };
            let root = copy.root();
            copy.apply(&Delta::InsertSubtree {
                parent: root,
                position: 0,
                fragment,
            })
            .unwrap();
        }
        copy
    }

    fn label_table(doc: &Document) -> Vec<&str> {
        (0..doc.label_slots()).map(|s| doc.slot_label(s)).collect()
    }

    #[test]
    fn regrafted_copy_fills_its_label_table_in_another_order() {
        let doc = Document::parse_str(r#"<r><a x="1"/><b>t</b></r>"#).unwrap();
        let copy = regraft_reversed(&doc);
        assert_eq!(crate::to_xml(&copy), crate::to_xml(&doc));
        assert_eq!(label_table(&doc), ["r", "a", "@x", "b", "S"]);
        assert_eq!(label_table(&copy), ["r", "b", "S", "a", "@x"]);
    }

    /// A random document from `(parent, kind, which)` steps, serialized
    /// and parsed back.
    fn parsed_doc(steps: &[(u8, u8, u8)]) -> Document {
        let mut doc = Document::new("r");
        let mut elements = vec![doc.root()];
        for &(parent, kind, which) in steps {
            let parent = elements[parent as usize % elements.len()];
            let which = which as usize;
            match kind % 4 {
                0 | 1 => elements.push(doc.add_element(parent, ["a", "b", "c", "d"][which % 4])),
                2 => {
                    doc.add_attribute(parent, ["x", "y", "z"][which % 3], ["0", "1"][which % 2]);
                }
                _ => {
                    doc.add_text(parent, ["t0", "t1", "1"][which % 3]);
                }
            }
        }
        Document::parse_str(&crate::to_xml(&doc)).unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The index depends on the tree, not on the order of the label
        /// table: a parsed document and a regrafted equal copy give the
        /// same labels, postings and value ids at every position — built
        /// against fresh universes and against one shared universe.
        #[test]
        fn index_ignores_label_table_order(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..12), 0..40),
        ) {
            let doc = parsed_doc(&steps);
            let copy = regraft_reversed(&doc);
            prop_assert_eq!(crate::to_xml(&copy), crate::to_xml(&doc));
            let (mut u1, mut u2) = (LabelUniverse::new(), LabelUniverse::new());
            let (one, two) = (DocIndex::build(&doc, &mut u1), DocIndex::build(&copy, &mut u2));
            prop_assert_eq!(u1.names(), u2.names());
            let mut shared = LabelUniverse::new();
            let three = DocIndex::build(&doc, &mut shared);
            let four = DocIndex::build(&copy, &mut shared);
            prop_assert_eq!(shared.names(), u1.names());
            assert_matches_oracle(&doc, &one, &u1);
            assert_matches_oracle(&copy, &two, &u2);
            assert_matches_oracle(&doc, &three, &shared);
            assert_matches_oracle(&copy, &four, &shared);
            for index in [&two, &three, &four] {
                prop_assert_eq!(index.len(), one.len());
                for pos in 0..one.len() as u32 {
                    prop_assert_eq!(index.label_at(pos), one.label_at(pos), "label at {}", pos);
                    prop_assert_eq!(index.kind_at(pos), one.kind_at(pos), "kind at {}", pos);
                    prop_assert_eq!(
                        index.value_id_at(pos),
                        one.value_id_at(pos),
                        "value id at {}",
                        pos
                    );
                }
                for label in 0..u1.len() {
                    let label = LabelId(label as u32);
                    prop_assert_eq!(index.postings(label), one.postings(label));
                }
            }
        }
    }

    /// A plain child-list model of a document's shape, indexed by raw
    /// node id, to check the sibling links against.
    struct Model {
        children: Vec<Vec<NodeId>>,
        parent: Vec<Option<NodeId>>,
        kind: Vec<NodeKind>,
    }

    impl Model {
        /// The model of `doc`, read off it once.
        fn of(doc: &Document) -> Model {
            let mut model = Model {
                children: vec![Vec::new(); doc.arena_len()],
                parent: vec![None; doc.arena_len()],
                kind: vec![NodeKind::Element; doc.arena_len()],
            };
            for n in doc.all_nodes() {
                model.kind[n.index()] = doc.kind(n);
                model.children[n.index()] = doc.children(n).collect();
                model.parent[n.index()] = doc.parent(n);
            }
            model
        }

        /// A new node, the last child of `parent` or at `position`.
        fn add(&mut self, parent: NodeId, position: Option<usize>, kind: NodeKind) -> NodeId {
            let id = NodeId::from_index(self.children.len());
            self.children.push(Vec::new());
            self.parent.push(Some(parent));
            self.kind.push(kind);
            let list = &mut self.children[parent.index()];
            list.insert(position.unwrap_or(list.len()), id);
            id
        }

        fn preorder(&self, from: NodeId, out: &mut Vec<NodeId>) {
            out.push(from);
            for &c in &self.children[from.index()] {
                self.preorder(c, out);
            }
        }

        fn subtree(&self, from: NodeId) -> Vec<NodeId> {
            let mut out = Vec::new();
            self.preorder(from, &mut out);
            out
        }

        /// How many attributes lead the children of `parent`.
        fn leading_attributes(&self, parent: NodeId) -> usize {
            self.children[parent.index()]
                .iter()
                .take_while(|c| self.kind[c.index()] == NodeKind::Attribute)
                .count()
        }
    }

    /// The element fragment the edit scripts insert: `<e{tag} a=".."><f>t</f>u</e{tag}>`,
    /// whose nodes in document order have these parents (by rank).
    const FRAGMENT_PARENTS: [usize; 4] = [0, 0, 2, 0];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Random `Document::apply` scripts — inserts at every legal
        /// position, refused inserts that would put an attribute after
        /// content, removals and text edits — agree step by step with a
        /// plain child-list model, and the patched index with a fresh one.
        #[test]
        fn sibling_links_follow_a_child_list_model(
            start in prop::collection::vec((0u8..16, 0u8..4, 0u8..12), 0..24),
            script in prop::collection::vec((0u8..6, 0u8..=255, 0u8..=255, 0u8..=255), 1..24),
        ) {
            let mut doc = parsed_doc(&start);
            let mut model = Model::of(&doc);
            let mut u = LabelUniverse::new();
            let mut index = DocIndex::build(&doc, &mut u);
            for (op, pick, slot, aux) in script {
                let live = model.subtree(doc.root());
                let elements: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|n| model.kind[n.index()] == NodeKind::Element)
                    .collect();
                let delta = match op {
                    // Insert an element, attribute or text fragment at a
                    // legal position: attributes among the leading
                    // attributes, content after them (0 and append
                    // included).
                    0..=2 => {
                        let parent = elements[pick as usize % elements.len()];
                        let (k, len) = (
                            model.leading_attributes(parent),
                            model.children[parent.index()].len(),
                        );
                        let (fragment, position) = match op {
                            0 => (
                                Fragment::Element(
                                    Document::parse_str(&format!(
                                        r#"<e{tag} a="{aux}"><f>t</f>u</e{tag}>"#,
                                        tag = aux % 3
                                    ))
                                    .unwrap(),
                                ),
                                k + slot as usize % (len - k + 1),
                            ),
                            1 => (
                                Fragment::Attribute { name: format!("n{}", aux % 3), value: format!("{aux}") },
                                slot as usize % (k + 1),
                            ),
                            _ => (Fragment::Text(format!("s{aux}")), k + slot as usize % (len - k + 1)),
                        };
                        Delta::InsertSubtree { parent, position, fragment }
                    }
                    // An insert on the wrong side of the attributes, which
                    // must be refused and change nothing.
                    3 => {
                        let parent = elements[pick as usize % elements.len()];
                        let (k, len) = (
                            model.leading_attributes(parent),
                            model.children[parent.index()].len(),
                        );
                        let (fragment, position) = if aux % 2 == 0 && k > 0 {
                            (Fragment::Text("x".into()), slot as usize % k)
                        } else if k < len {
                            (
                                Fragment::Attribute { name: "m".into(), value: "x".into() },
                                k + 1 + slot as usize % (len - k),
                            )
                        } else {
                            continue;
                        };
                        let before = doc.clone();
                        let err = doc
                            .apply(&Delta::InsertSubtree { parent, position, fragment })
                            .unwrap_err();
                        prop_assert_eq!(err, DeltaError::AttributeAfterContent { parent, position });
                        prop_assert!(doc == before, "a refused insert changes nothing");
                        continue;
                    }
                    4 if live.len() > 1 => Delta::RemoveSubtree { node: live[1 + pick as usize % (live.len() - 1)] },
                    _ => {
                        let texts: Vec<NodeId> = live
                            .iter()
                            .copied()
                            .filter(|n| model.kind[n.index()] != NodeKind::Element)
                            .collect();
                        if texts.is_empty() {
                            continue;
                        }
                        Delta::SetText { node: texts[pick as usize % texts.len()], text: format!("v{aux}") }
                    }
                };
                let base = doc.arena_len();
                let applied = doc.apply(&delta).unwrap();
                match &delta {
                    Delta::InsertSubtree { parent, position, fragment } => {
                        let root = model.add(*parent, Some(*position), match fragment {
                            Fragment::Element(_) => NodeKind::Element,
                            Fragment::Attribute { .. } => NodeKind::Attribute,
                            Fragment::Text(_) => NodeKind::Text,
                        });
                        prop_assert_eq!(root.index(), base);
                        if let Fragment::Element(frag) = fragment {
                            for (i, &p) in FRAGMENT_PARENTS.iter().enumerate() {
                                let kind = frag.kind(frag.all_nodes()[i + 1]);
                                model.add(NodeId::from_index(base + p), None, kind);
                            }
                        }
                        prop_assert_eq!(applied.nodes_added(), (model.children.len() - base) as isize);
                    }
                    Delta::RemoveSubtree { node } => {
                        let parent = model.parent[node.index()].unwrap();
                        model.children[parent.index()].retain(|c| c != node);
                        model.parent[node.index()] = None;
                        prop_assert_eq!(applied.nodes_added(), -(model.subtree(*node).len() as isize));
                    }
                    Delta::SetText { node, text } => {
                        prop_assert_eq!(doc.text_value(*node), Some(text.as_str()));
                    }
                }
                prop_assert_eq!(doc.arena_len(), model.children.len());
                let order = model.subtree(doc.root());
                prop_assert_eq!(doc.len(), order.len());
                prop_assert_eq!(doc.parent(doc.root()), None);
                for &n in &order {
                    let children: Vec<NodeId> = doc.children(n).collect();
                    prop_assert_eq!(&children, &model.children[n.index()], "children of {}", n);
                    for &c in &children {
                        prop_assert_eq!(doc.parent(c), Some(n));
                    }
                    prop_assert_eq!(doc.descendants_or_self(n), model.subtree(n));
                }
                index.apply_delta(&doc, &applied, &mut u);
                assert_matches_fresh(&doc, &index, &u);
            }
        }
    }

    #[test]
    fn prior_interning_is_respected_and_extended() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let early = u.intern("book");
        let probe_only = u.intern("magazine");
        let index = DocIndex::build(&doc, &mut u);
        assert_eq!(u.lookup("book"), Some(early));
        assert_eq!(index.postings(early).len(), 2);
        assert!(index.postings(probe_only).is_empty());
    }
}
