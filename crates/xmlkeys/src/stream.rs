//! Streaming key validation: Definition 2.1 checked as elements close.
//!
//! The prepared validator ([`KeyIndex::violations`]) evaluates each key's
//! context and target paths over a fully built
//! [`DocIndex`](xmlprop_xmltree::DocIndex).  [`StreamKeyChecker`] answers
//! the same question in one [`StreamParser`] pass over the text, without
//! materializing the document: per key it simulates the compiled context
//! expression down the open path ([`xmlprop_xmlpath::StreamMatcher`]),
//! keeps one record per *open* context node — the paper's observation that
//! a key constraint is decidable at context close — and inside every open
//! context simulates the target expression and maintains the hashed
//! key-tuple set of condition (2).  Retained state is `O(depth + open
//! contexts + reported violations)` plus the tuple sets, never `O(nodes)`
//! of tree structure.
//!
//! The checker reproduces the prepared validator **bit for bit**,
//! including node identities and report order:
//!
//! * streamed nodes are numbered in document pre-order, which equals the
//!   arena [`NodeId`] order for any parser-built document;
//! * element targets are finalized when their attribute section ends, so
//!   complete targets enter the tuple set in document order (first/second
//!   attribution of [`Violation::DuplicateKeyValue`] matches);
//! * per-context violations are stably sorted by target before a context
//!   report is emitted, and contexts report in document order.

use crate::index::KeyIndex;
use crate::satisfy::Violation;
use std::collections::HashMap;
use xmlprop_xmlpath::{LabelId, MatchState, PathTooLong, StreamMatcher};
use xmlprop_xmltree::{NodeId, ParseError, StreamEvent, StreamParser};

/// Per-key compiled machinery plus live matching state.
#[derive(Debug)]
struct KeyState {
    context_matcher: StreamMatcher,
    target_matcher: StreamMatcher,
    /// Context-expression NFA state per open element (root-path).
    context_states: Vec<MatchState>,
    /// Open context records, innermost last (they nest along the path).
    open: Vec<OpenContext>,
    /// Next context sequence number (contexts are created in pre-order).
    next_seq: u32,
    /// Closed contexts that produced violations, keyed by creation order.
    done: Vec<(u32, Vec<Violation>)>,
}

/// One open context node of one key.
#[derive(Debug)]
struct OpenContext {
    node: NodeId,
    seq: u32,
    /// Element-stack depth at which this context was opened (a leaf
    /// context closes within the call that opened it).
    depth: usize,
    /// Target-expression NFA state per open element at or below the
    /// context; `target_states[0]` is the start state at the context node.
    target_states: Vec<MatchState>,
    /// Condition (2): complete key tuple → first target carrying it.
    seen: HashMap<Vec<String>, NodeId>,
    /// Violations under this context, tagged with the target node for the
    /// final stable sort into document order.
    violations: Vec<(NodeId, Violation)>,
}

/// One target node of one key, with the attribute tallies it is checked
/// on: per key attribute (in key order) the number of matching attribute
/// children seen and the first value.
#[derive(Debug)]
struct PendingTarget {
    key: usize,
    node: NodeId,
    /// Stack indices into the key's `open` contexts this node is a target
    /// of (stable until the element closes — no context below it can pop
    /// while its attribute section is still open).
    contexts: Vec<usize>,
    counts: Vec<u32>,
    values: Vec<String>,
}

/// Streaming validator for a prepared [`KeyIndex`] over one document's
/// text.
///
/// [`check`](Self::check) runs the parser pass and returns the per-key
/// violation lists.  Labels resolve read-only against
/// [`KeyIndex::universe`]; a label no key mentions can only traverse `//`.
#[derive(Debug)]
pub struct StreamKeyChecker<'a> {
    index: &'a KeyIndex,
    keys: Vec<KeyState>,
    /// The interned id of the text-node label `"S"`, if any key mentions it.
    text_label: Option<LabelId>,
    /// Number of open elements.
    depth: usize,
    /// The innermost element's targets, awaiting the end of its attribute
    /// section (at most one per key).
    pending: Vec<PendingTarget>,
    /// Document pre-order counter: the next node's id.
    next_node: u32,
    /// High-water mark of simultaneously open context records.
    peak_open_contexts: usize,
}

/// The result of streaming one document through a [`StreamKeyChecker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckReport {
    /// Violations per key, in Σ order — each entry matches
    /// [`KeyIndex::violations_of`] for that key.
    pub per_key: Vec<Vec<Violation>>,
    /// Total number of nodes streamed (elements, attributes, text).
    pub nodes: usize,
    /// High-water mark of simultaneously open context records across all
    /// keys.
    pub peak_open_contexts: usize,
}

impl StreamCheckReport {
    /// All violations concatenated in Σ order, like
    /// [`KeyIndex::violations`].
    pub fn all_violations(&self) -> Vec<Violation> {
        self.per_key.iter().flatten().cloned().collect()
    }
}

impl<'a> StreamKeyChecker<'a> {
    /// Prepares a checker for one document against `index`, or refuses
    /// with [`PathTooLong`] when a key's context or target path is too long
    /// to stream (validate such documents on the tree instead).
    pub fn new(index: &'a KeyIndex) -> Result<Self, PathTooLong> {
        let keys = index
            .keys()
            .iter()
            .map(|k| {
                Ok(KeyState {
                    context_matcher: StreamMatcher::new(k.context())?,
                    target_matcher: StreamMatcher::new(k.target())?,
                    context_states: Vec::new(),
                    open: Vec::new(),
                    next_seq: 0,
                    done: Vec::new(),
                })
            })
            .collect::<Result<_, PathTooLong>>()?;
        Ok(StreamKeyChecker {
            index,
            keys,
            text_label: index.universe().lookup("S"),
            depth: 0,
            pending: Vec::new(),
            next_node: 0,
            peak_open_contexts: 0,
        })
    }

    /// Checks `xml` in one parser pass, returning the per-key violation
    /// lists in the exact order of the prepared DOM validator, or the
    /// parse error the DOM parser would report.
    pub fn check(mut self, xml: &str) -> Result<StreamCheckReport, ParseError> {
        let universe = self.index.universe();
        let mut parser = StreamParser::new(xml);
        let mut attribute_label = String::new();
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::StartElement { name } => self.start_element(universe.lookup(name)),
                StreamEvent::Attribute { name, value } => {
                    attribute_label.clear();
                    attribute_label.push('@');
                    attribute_label.push_str(name);
                    self.attribute(universe.lookup(&attribute_label), &value);
                }
                StreamEvent::Text { .. } => self.text(),
                StreamEvent::EndElement => self.end_element(),
            }
        }
        Ok(self.finish())
    }

    fn start_element(&mut self, label: Option<LabelId>) {
        self.finalize_pending();
        self.enter(label, false);
        self.depth += 1;
    }

    /// An attribute of the innermost open element: feeds the owner's
    /// pending tallies, then enters the attribute node itself.
    fn attribute(&mut self, label: Option<LabelId>, value: &str) {
        for pending in &mut self.pending {
            let val_attrs = self.index.keys()[pending.key].val_attrs();
            for (i, &attr) in val_attrs.iter().enumerate() {
                if label == Some(attr) {
                    pending.counts[i] += 1;
                    if pending.counts[i] == 1 {
                        pending.values[i] = value.to_string();
                    }
                }
            }
        }
        self.enter(label, true);
    }

    fn text(&mut self) {
        self.finalize_pending();
        self.enter(self.text_label, true);
    }

    fn end_element(&mut self) {
        self.finalize_pending();
        self.depth -= 1;
        for key in &mut self.keys {
            // A context opened at this element closes now (at most one per
            // key: contexts lie on the root-path, one node per depth).
            if key.open.last().is_some_and(|c| c.depth == self.depth) {
                let ctx = key.open.pop().expect("checked above");
                key.close_context(ctx);
            }
            for ctx in &mut key.open {
                ctx.target_states.pop();
            }
            key.context_states.pop();
        }
    }

    fn finish(mut self) -> StreamCheckReport {
        let nodes = self.next_node as usize;
        let per_key = self
            .keys
            .iter_mut()
            .map(|key| {
                debug_assert!(key.open.is_empty() && key.context_states.is_empty());
                key.done.sort_by_key(|(seq, _)| *seq);
                key.done
                    .drain(..)
                    .flat_map(|(_, violations)| violations)
                    .collect()
            })
            .collect();
        StreamCheckReport {
            per_key,
            nodes,
            peak_open_contexts: self.peak_open_contexts,
        }
    }

    /// Handles one node: steps every key's matching through `label`,
    /// opens a context if the node is one, and records the node as a target
    /// of every open context it matches.  An element keeps its matching
    /// state until [`end_element`](Self::end_element), and its targets wait
    /// in `pending` for its attributes.  A `leaf` (attribute or text) keeps
    /// no state: it has no attributes, so its targets are finalized at once,
    /// and a context it opens closes before the call returns.
    fn enter(&mut self, label: Option<LabelId>, leaf: bool) {
        let node = NodeId::from_index(self.next_node as usize);
        self.next_node += 1;
        let mut open_total = 0;
        for (ki, key) in self.keys.iter_mut().enumerate() {
            // Step target matching of every context already open; collect
            // hits for the target record (outer contexts first).
            let mut contexts: Vec<usize> = Vec::new();
            for (ci, ctx) in key.open.iter_mut().enumerate() {
                let top = *ctx.target_states.last().expect("context has a state");
                let stepped = key.target_matcher.step(top, label);
                if !leaf {
                    ctx.target_states.push(stepped);
                }
                if key.target_matcher.accepts(stepped) {
                    contexts.push(ci);
                }
            }
            // Step the context expression: the root is reached by the empty
            // word, children extend their parent's word by one label.
            let state = match key.context_states.last() {
                None => key.context_matcher.start(),
                Some(&parent) => key.context_matcher.step(parent, label),
            };
            if !leaf {
                key.context_states.push(state);
            }
            let is_context = key.context_matcher.accepts(state);
            if is_context {
                let start = key.target_matcher.start();
                if key.target_matcher.accepts(start) {
                    contexts.push(key.open.len());
                }
                key.open.push(OpenContext {
                    node,
                    seq: key.next_seq,
                    depth: self.depth,
                    target_states: vec![start],
                    seen: HashMap::new(),
                    violations: Vec::new(),
                });
                key.next_seq += 1;
            }
            if !contexts.is_empty() {
                let attrs = self.index.keys()[ki].val_attrs().len();
                let target = PendingTarget {
                    key: ki,
                    node,
                    contexts,
                    counts: vec![0; attrs],
                    values: vec![String::new(); attrs],
                };
                if leaf || attrs == 0 {
                    // No attributes to await: the tuple is complete now, and
                    // finalizing immediately keeps condition (2) insertion
                    // in document order.
                    key.finalize_target(target, self.index);
                } else {
                    self.pending.push(target);
                }
            }
            if leaf && is_context {
                let ctx = key.open.pop().expect("pushed above");
                key.close_context(ctx);
            }
            open_total += key.open.len();
        }
        self.peak_open_contexts = self.peak_open_contexts.max(open_total);
    }

    /// Finalizes the innermost element's pending targets (its attribute
    /// section just ended).
    fn finalize_pending(&mut self) {
        for target in self.pending.drain(..) {
            self.keys[target.key].finalize_target(target, self.index);
        }
    }
}

impl KeyState {
    /// Checks conditions (1) and (2) of Definition 2.1 for one target node
    /// against every open context it matched, mirroring the DOM loop of
    /// [`KeyIndex::violations`] attribute for attribute.
    fn finalize_target(&mut self, target: PendingTarget, index: &KeyIndex) {
        let val_attrs = index.keys()[target.key].val_attrs();
        let node = target.node;
        let mut values = target.values;
        let last = target.contexts.len() - 1;
        for (i, &ci) in target.contexts.iter().enumerate() {
            let ctx = &mut self.open[ci];
            let mut complete = true;
            for (&attr, &count) in val_attrs.iter().zip(&target.counts) {
                let attribute = index.universe().name(attr);
                if let Some(v) = Violation::from_attribute_count(count, ctx.node, node, attribute) {
                    complete = false;
                    ctx.violations.push((node, v));
                }
            }
            if !complete {
                continue;
            }
            // The last context takes the tuple; earlier ones get a copy.
            let tuple = if i == last {
                std::mem::take(&mut values)
            } else {
                values.clone()
            };
            match ctx.seen.get(&tuple) {
                Some(&first) => {
                    ctx.violations.push((
                        node,
                        Violation::DuplicateKeyValue {
                            context: ctx.node,
                            first,
                            second: node,
                            values: tuple,
                        },
                    ));
                }
                None => {
                    ctx.seen.insert(tuple, node);
                }
            }
        }
    }

    /// Closes one context: orders its violations by target (the DOM
    /// validator reports a context's targets in document order) and records
    /// them under the context's creation order.
    fn close_context(&mut self, mut ctx: OpenContext) {
        if ctx.violations.is_empty() {
            return;
        }
        ctx.violations.sort_by_key(|(target, _)| *target);
        self.done.push((
            ctx.seq,
            ctx.violations.into_iter().map(|(_, v)| v).collect(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::validation_proptests::{build_doc, key_strategy};
    use crate::{KeySet, XmlKey};
    use proptest::prelude::*;
    use xmlprop_xmltree::{to_xml, Document};

    /// Streams `text` through a checker against `index`.
    fn stream_check(index: &KeyIndex, text: &str) -> StreamCheckReport {
        StreamKeyChecker::new(index).unwrap().check(text).unwrap()
    }

    /// Asserts the streamed report matches the prepared DOM validator
    /// per key and in aggregate.
    fn assert_matches_dom(sigma: &KeySet, text: &str) {
        let doc = Document::parse_str(text).unwrap();
        assert!(doc.all_nodes().is_sorted());
        let mut index = KeyIndex::new(sigma);
        let dix = index.index_document(&doc);
        let report = stream_check(&index, text);
        assert_eq!(report.nodes, doc.len(), "node count for {text}");
        for k in 0..index.len() {
            assert_eq!(
                report.per_key[k],
                index.violations_of(k, &doc, &dix),
                "key {k} on {text}"
            );
        }
        assert_eq!(report.all_violations(), index.violations(&doc, &dix));
    }

    fn sigma(keys: &[&str]) -> KeySet {
        keys.iter().map(|k| XmlKey::parse(k).unwrap()).collect()
    }

    #[test]
    fn clean_document_reports_nothing() {
        let sigma = sigma(&["(ε, (//book, {@isbn}))"]);
        let index = KeyIndex::new(&sigma);
        let report = stream_check(&index, r#"<db><book isbn="1"/><book isbn="2"/></db>"#);
        assert!(report.per_key.iter().all(|v| v.is_empty()));
        assert_eq!(report.nodes, 5);
        assert!(report.peak_open_contexts >= 1);
    }

    #[test]
    fn every_violation_kind_matches_the_dom_validator() {
        let s = sigma(&["(ε, (//book, {@isbn}))"]);
        // Missing, duplicate attribute, duplicate key value.
        assert_matches_dom(
            &s,
            r#"<db><book/><book isbn="1" isbn="2"/><book isbn="3"/><book isbn="3"/></db>"#,
        );
    }

    #[test]
    fn nested_contexts_report_in_document_order() {
        // Contexts nest (every `part` is a context); inner contexts close
        // before outer ones but must report after them.
        let s = sigma(&["(//part, (item, {@id}))"]);
        assert_matches_dom(
            &s,
            r#"<r><part><item id="1"/><part><item/><item id="2"/><item id="2"/></part><item id="1"/><item id="1"/></part></r>"#,
        );
    }

    #[test]
    fn multi_attribute_keys_and_attribute_targets() {
        let s = sigma(&[
            "(ε, (//book, {@isbn, @lang}))",
            "(//book, (@isbn, {}))",
            "(ε, (//book/author, {}))",
        ]);
        assert_matches_dom(
            &s,
            r#"<db><book isbn="1"><author/><author/></book><book lang="en" isbn="1" lang="en"/><book isbn="1" lang="fr"/><book isbn="1" lang="fr"/></db>"#,
        );
    }

    #[test]
    fn descendant_paths_and_unknown_labels() {
        let s = sigma(&["(//a, (//b, {@k}))"]);
        assert_matches_dom(
            &s,
            r#"<r><a><zzz><b k="1"/><b k="1"/></zzz><b/></a><a><b k="2"/></a></r>"#,
        );
    }

    #[test]
    fn text_and_epsilon_targets() {
        // Text nodes are addressable as `S`; ε targets make every context
        // its own target.
        let s = sigma(&["(//p, (S, {}))", "(//p, (ε, {@id}))"]);
        assert_matches_dom(&s, r#"<r><p id="1">one</p><p>two<b/>three</p></r>"#);
    }

    #[test]
    fn empty_attribute_sets_use_node_identity_tuples() {
        // {} keys: every complete tuple is the empty tuple, so two targets
        // under one context always clash.
        let s = sigma(&["(ε, (//chapter, {}))"]);
        assert_matches_dom(&s, r#"<db><book><chapter/><chapter/></book></db>"#);
    }

    #[test]
    fn keys_too_long_to_stream_are_refused() {
        let target = vec!["a"; 130].join("/");
        let s = sigma(&[&format!("(ε, ({target}, {{}}))")]);
        let index = KeyIndex::new(&s);
        let err = StreamKeyChecker::new(&index).unwrap_err();
        assert_eq!(err.atoms, 130);
    }

    #[test]
    fn peak_open_contexts_stays_bounded_by_nesting() {
        let s = sigma(&["(//a, (b, {@k}))"]);
        let index = KeyIndex::new(&s);
        // 40 sibling `a` subtrees: one context open at a time.
        let mut text = String::from("<r>");
        for i in 0..40 {
            text.push_str(&format!(r#"<a><b k="{i}"/></a>"#));
        }
        text.push_str("</r>");
        let report = stream_check(&index, &text);
        assert_eq!(report.peak_open_contexts, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The streaming checker agrees key for key with the prepared DOM
        /// validator on random documents and random key sets: attribute
        /// and text targets, `//` contexts, nested contexts and duplicate
        /// attributes.
        #[test]
        fn streaming_matches_batch_on_random_documents_and_keys(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            keys in prop::collection::vec(key_strategy(), 1..5),
        ) {
            let text = to_xml(&build_doc(&steps));
            let doc = Document::parse_str(&text).unwrap();
            let mut index = KeyIndex::new(&KeySet::from_keys(keys));
            let dix = index.index_document(&doc);
            let report = stream_check(&index, &text);
            prop_assert_eq!(report.nodes, doc.len());
            for k in 0..index.len() {
                prop_assert_eq!(
                    &report.per_key[k],
                    &index.violations_of(k, &doc, &dix),
                    "key {} on {}", k, text
                );
            }
        }
    }
}
