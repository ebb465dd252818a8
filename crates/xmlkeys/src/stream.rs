//! Streaming key validation: Definition 2.1 checked in one scan of the
//! text, through one lazily built automaton for all keys.
//!
//! The prepared validator ([`KeyIndex::violations`]) evaluates each key's
//! context and target paths over a fully built
//! [`DocIndex`](xmlprop_xmltree::DocIndex).  [`KeyAutomaton`] answers the
//! same question in one [`scan`] of the text, without materializing the
//! document.  Contexts and targets lie on root paths, so the whole
//! matching configuration at a node is a function of its parent's
//! configuration and its own label: per key, the context expression's NFA
//! state ([`MatchState`], from [`StreamMatcher`]) and the target
//! expression's state inside each *open* context of that key.  The
//! automaton interns every configuration it meets as one DFA state and
//! caches `(state, label) → state`, as the lazy DFAs of Green, Gupta,
//! Miklau, Onizuka & Suciu ("Processing XML streams with deterministic
//! automata and stream indexes", TODS 2004) do for XPath filters.  One
//! state holds every key's configuration, so keys share their path
//! prefixes as the filters of YFilter do (Diao et al., TODS 2003).
//!
//! Each state carries its actions, derived once when it is interned: the
//! keys whose context the node is, and the open contexts it is a target
//! of.  A node then costs one cached transition plus its actions, and an
//! end tag pops one state id.  The cache has a fixed bound; past it the
//! cache is cleared and refilled lazily, keeping only the states of the
//! open elements.  Each target is checked by [`KeyIndex::check_target`],
//! as in the DOM validator, against its context's tuple table.  Retained
//! per-check state is `O(depth + open contexts + reported violations)`,
//! one reused tuple table per open-context depth, and the value interner,
//! which keeps each distinct key-attribute value of the document once —
//! never `O(nodes)` of tree structure.  The automaton and its buffers
//! outlive a check: a caller that checks many documents against one
//! [`KeyIndex`] keeps one and reuses its states.
//!
//! The checker reproduces the prepared validator **bit for bit**,
//! including node identities and report order:
//!
//! * streamed nodes are numbered in document pre-order, which equals the
//!   arena [`NodeId`] order for any parser-built document;
//! * element targets are checked when their attribute section ends, so
//!   complete targets enter the tuple table in document order (first/second
//!   attribution of [`Violation::DuplicateKeyValue`] matches);
//! * per-context violations are stably sorted by target before a context
//!   report is emitted, and contexts report in document order.

use crate::index::{KeyIndex, TupleTable};
use crate::satisfy::Violation;
use std::borrow::Cow;
use std::collections::HashMap;
use xmlprop_xmlpath::{LabelId, MatchState, PathTooLong, StreamMatcher};
use xmlprop_xmltree::{scan, FoldState, NodeId, ParseError, SliceInterner, SlotCache, StreamEvent};

/// The transitions (states × labels) the cache holds before it is
/// cleared: 1 MiB of state ids.
const CACHE_SLOTS: usize = 1 << 18;

/// The fewest states the cache holds, however many labels the keys name.
const MIN_STATES: usize = 64;

/// No state: an unfilled transition, or no root state yet.
const NONE: u32 = u32::MAX;

/// Tags a configuration entry as an open context's target state; untagged
/// entries hold a key's context state.
const TARGET: u32 = 1 << 31;

/// A compiled key set as one lazily built DFA over whole matching
/// configurations, plus the reused buffers of a check; see the module
/// docs.
///
/// Built from a [`KeyIndex`] and used with that index only: every
/// [`check`](Self::check) takes it again, for [`KeyIndex::check_target`].
/// Labels resolve read-only against [`KeyIndex::universe`]; a label no key
/// mentions can only traverse `//`.
#[derive(Debug)]
pub struct KeyAutomaton {
    dfa: Dfa,
    names: Names,
    /// Label → the `(key, slot)` pairs of the key attributes it names.
    attr_slots: Vec<Vec<(u32, u32)>>,
    /// Key → its first slot in `tallies`; one entry past the last key.
    tally_starts: Vec<usize>,
    /// The pending element's key-attribute tallies, per key in key order,
    /// for [`KeyIndex::check_target`].
    tallies: Vec<(u32, u32)>,
    /// Key → the pending node whose tallies `tallies` holds for it.
    stamps: Vec<u32>,
    /// The tallies of a node without attributes.
    absent: Vec<(u32, u32)>,
    /// Per key: its open contexts and finished reports.
    keys: Vec<KeyRun>,
    /// The state of each open element, innermost last.
    stack: Vec<u32>,
    /// The innermost element, while its attribute section is open, if it is
    /// a target of a key with attributes.
    pending: Option<NodeId>,
    /// Key-attribute values, interned by their text (decoded or not).
    values: SliceInterner<u8>,
    /// Document pre-order counter: the next node's id.
    next_node: u32,
    /// High-water mark of simultaneously open context records.
    peak_open_contexts: usize,
    /// The length of the universe of the index the automaton was built
    /// from.
    vocabulary: usize,
}

/// Element and attribute names → the automaton's label indices (0 for a
/// name no key mentions; label `l > 0` is universe id `l - 1`).
#[derive(Debug)]
struct Names {
    elements: HashMap<Box<str>, u32, FoldState>,
    attributes: HashMap<Box<str>, u32, FoldState>,
    /// The label of text nodes, `S`.
    text: u32,
}

/// The lazily built DFA: interned configurations, their actions and the
/// bounded transition cache.
#[derive(Debug)]
struct Dfa {
    /// Per key: the context and target matchers.
    matchers: Vec<(StreamMatcher, StreamMatcher)>,
    /// Label index → the label the matchers step on.
    labels: Vec<Option<LabelId>>,
    /// The number of label indices: a row of `next`.
    width: usize,
    /// State id → configuration: per key, `(key, context state)` followed
    /// by `(key | TARGET, target state)` for each open context of the key,
    /// outermost first.
    configs: SliceInterner<(u32, MatchState)>,
    /// State id → its actions.
    actions: Vec<Actions>,
    /// The keys each state opens a context for, back to back.
    opens: Vec<u32>,
    /// The `(key, open-context position)` pairs each state is a target
    /// of, back to back.
    targets: Vec<(u32, u32)>,
    /// `state * labels.len() + label` → the child state, or [`NONE`].
    next: Vec<u32>,
    /// The state of a root element, or [`NONE`].
    root: u32,
    /// How many states the cache holds before it is cleared.
    bound: usize,
    /// How many states the last clear kept (the open elements' states).
    kept: usize,
    /// Reused buffers: a configuration being built, and the configurations
    /// a clear keeps.
    build: Vec<(u32, MatchState)>,
    saved: Vec<(u32, MatchState)>,
    saved_ends: Vec<usize>,
    remap: Vec<u32>,
}

/// What a node in one state does, derived once per state: ranges into
/// [`Dfa::opens`] and [`Dfa::targets`].
#[derive(Debug, Clone, Copy)]
struct Actions {
    opens: (u32, u32),
    targets: (u32, u32),
    /// Open contexts over all keys at the node, its own included.
    open_total: u32,
    /// Whether the node opens a context or is a target.
    busy: bool,
}

/// One key's open contexts and finished reports during a check.
#[derive(Debug, Default)]
struct KeyRun {
    /// Open context records, innermost last (they nest along the path).
    open: Vec<OpenContext>,
    /// The reused tuple table of each open context: `frames[i]` belongs to
    /// `open[i]`; frames past `open.len()` wait to be reused.
    frames: Vec<TupleTable>,
    /// Next context sequence number (contexts are created in pre-order).
    next_seq: u32,
    /// Closed contexts that produced violations, keyed by creation order.
    done: Vec<(u32, Vec<Violation>)>,
}

/// One open context node of one key.
#[derive(Debug)]
struct OpenContext {
    seq: u32,
    /// Violations under this context, sorted by target when it closes.
    violations: Vec<Violation>,
}

/// The one-shot form of [`KeyAutomaton`]: a fresh automaton for one
/// document's text.
#[derive(Debug)]
pub struct StreamKeyChecker<'a> {
    index: &'a KeyIndex,
    automaton: KeyAutomaton,
}

/// The result of streaming one document through a [`KeyAutomaton`].
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
        Ok(StreamKeyChecker {
            index,
            automaton: KeyAutomaton::new(index)?,
        })
    }

    /// Checks `xml` in one scan; see [`KeyAutomaton::check`].
    pub fn check(mut self, xml: &str) -> Result<StreamCheckReport, ParseError> {
        self.automaton.check(self.index, xml)
    }
}

impl KeyAutomaton {
    /// Compiles `index`'s keys into an automaton with an empty cache, or
    /// refuses with [`PathTooLong`] when a key's context or target path is
    /// too long to stream (validate such documents on the tree instead).
    pub fn new(index: &KeyIndex) -> Result<Self, PathTooLong> {
        let matchers = index
            .keys()
            .iter()
            .map(|k| {
                Ok((
                    StreamMatcher::new(k.context())?,
                    StreamMatcher::new(k.target())?,
                ))
            })
            .collect::<Result<Vec<_>, PathTooLong>>()?;
        let universe = index.universe();
        let width = universe.len() + 1;
        let mut labels = vec![None];
        let (mut elements, mut attributes) = (HashMap::default(), HashMap::default());
        for (i, name) in universe.names().iter().enumerate() {
            let label = u32::try_from(i + 1).expect("label universe fits u32");
            labels.push(Some(LabelId(label - 1)));
            match name.strip_prefix('@') {
                Some(attribute) => attributes.insert(attribute.into(), label),
                None => elements.insert(name.as_str().into(), label),
            };
        }
        let text = elements.get("S").copied().unwrap_or(0);
        let mut attr_slots = vec![Vec::new(); width];
        let mut tally_starts = vec![0];
        for (k, key) in index.keys().iter().enumerate() {
            for (slot, attr) in key.val_attrs().iter().enumerate() {
                attr_slots[attr.index() + 1].push((k as u32, slot as u32));
            }
            tally_starts.push(tally_starts[k] + key.val_attrs().len());
        }
        let widest = index.keys().iter().map(|k| k.val_attrs().len()).max();
        Ok(KeyAutomaton {
            dfa: Dfa {
                matchers,
                labels,
                width,
                configs: SliceInterner::default(),
                actions: Vec::new(),
                opens: Vec::new(),
                targets: Vec::new(),
                next: Vec::new(),
                root: NONE,
                bound: (CACHE_SLOTS / width).max(MIN_STATES),
                kept: 0,
                build: Vec::new(),
                saved: Vec::new(),
                saved_ends: Vec::new(),
                remap: Vec::new(),
            },
            names: Names {
                elements,
                attributes,
                text,
            },
            attr_slots,
            tallies: vec![(0, 0); *tally_starts.last().expect("starts at 0")],
            tally_starts,
            stamps: vec![NONE; index.len()],
            absent: vec![(0, 0); widest.unwrap_or(0)],
            keys: (0..index.len()).map(|_| KeyRun::default()).collect(),
            stack: Vec::new(),
            pending: None,
            values: SliceInterner::default(),
            next_node: 0,
            peak_open_contexts: 0,
            vocabulary: universe.len(),
        })
    }

    /// Checks `xml` in one scan against `index` — the index the automaton
    /// was built from — returning the per-key violation lists in the exact
    /// order of the prepared DOM validator, or the parse error the DOM
    /// parser would report.  The states met stay cached for the next
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not shaped like the index the automaton was
    /// built from.
    pub fn check(&mut self, index: &KeyIndex, xml: &str) -> Result<StreamCheckReport, ParseError> {
        assert!(
            index.len() == self.keys.len() && index.universe().len() == self.vocabulary,
            "a KeyAutomaton checks against the KeyIndex it was built from"
        );
        self.reset();
        let (mut elements, mut attributes) = (SlotCache::default(), SlotCache::default());
        let mut values = SlotCache::default();
        // Inlined into the scan's loops, where each event's kind is known.
        scan(
            xml,
            #[inline(always)]
            |event| match event {
                StreamEvent::StartElement { name } => {
                    let label = elements.get(name, || self.names.element(name));
                    self.start_element(index, label);
                }
                StreamEvent::Attribute { name, value } => {
                    let label = attributes.get(name, || self.names.attribute(name));
                    self.attribute(index, label, value, &mut values);
                }
                StreamEvent::Text { .. } => {
                    self.finalize_pending(index);
                    self.enter(index, self.names.text, true);
                }
                StreamEvent::EndElement => self.end_element(index),
            },
        )?;
        Ok(self.finish())
    }

    /// Forgets the last check's document; the cached states stay.
    fn reset(&mut self) {
        self.stack.clear();
        self.pending = None;
        self.stamps.fill(NONE);
        self.values.clear();
        self.next_node = 0;
        self.peak_open_contexts = 0;
        for key in &mut self.keys {
            key.open.clear();
            key.next_seq = 0;
            key.done.clear();
        }
    }

    #[inline(always)]
    fn start_element(&mut self, index: &KeyIndex, label: u32) {
        self.finalize_pending(index);
        self.enter(index, label, false);
    }

    /// An attribute of the innermost open element: feeds the tallies of
    /// the keys the element is a pending target of, then enters the
    /// attribute node itself.
    /// A value the text spells out is interned through `cache`, since a
    /// document repeats few distinct values; the cache marks empty slots
    /// with the empty string, so the empty value skips it.
    #[inline(always)]
    fn attribute<'t>(
        &mut self,
        index: &KeyIndex,
        label: u32,
        value: Cow<'t, str>,
        cache: &mut SlotCache<'t>,
    ) {
        if let Some(node) = self.pending {
            let mut id = None;
            for &(k, slot) in &self.attr_slots[label as usize] {
                if self.stamps[k as usize] == node.index() as u32 {
                    let id = *id.get_or_insert_with(|| match value {
                        Cow::Borrowed(text) if !text.is_empty() => {
                            cache.get(text, || self.values.intern(text.as_bytes()).0)
                        }
                        _ => self.values.intern(value.as_bytes()).0,
                    });
                    let tally = &mut self.tallies[self.tally_starts[k as usize] + slot as usize];
                    *tally = (tally.0 + 1, id);
                }
            }
        }
        self.enter(index, label, true);
    }

    #[inline(always)]
    fn end_element(&mut self, index: &KeyIndex) {
        self.finalize_pending(index);
        let state = self.stack.pop().expect("the scan balances tags");
        if !self.dfa.actions[state as usize].busy {
            return;
        }
        // The contexts opened at this element close now: contexts lie on
        // the root path, so each is its key's innermost.
        for &k in self.dfa.opens_of(state) {
            self.keys[k as usize].close();
        }
    }

    fn finish(&mut self) -> StreamCheckReport {
        debug_assert!(self.stack.is_empty());
        let per_key = self
            .keys
            .iter_mut()
            .map(|key| {
                debug_assert!(key.open.is_empty());
                key.done.sort_by_key(|(seq, _)| *seq);
                key.done
                    .drain(..)
                    .flat_map(|(_, violations)| violations)
                    .collect()
            })
            .collect();
        StreamCheckReport {
            per_key,
            nodes: self.next_node as usize,
            peak_open_contexts: self.peak_open_contexts,
        }
    }

    /// Handles one node with `label`: one transition from the innermost
    /// open element's state, then the new state's actions, if it has any.
    /// An element's state stays on the stack until
    /// [`end_element`](Self::end_element).
    #[inline(always)]
    fn enter(&mut self, index: &KeyIndex, label: u32, leaf: bool) {
        let node = NodeId::from_index(self.next_node as usize);
        self.next_node += 1;
        let state = self.dfa.step(&mut self.stack, label);
        if !leaf {
            self.stack.push(state);
        }
        if self.dfa.actions[state as usize].busy {
            self.act(index, state, node, leaf);
        }
    }

    /// Runs the actions of `node` in `state`: opens the contexts the node
    /// is, and checks the node against every open context it is a target
    /// of.  As a target of a key with attributes, an element waits in
    /// `pending` for its attribute section.  A `leaf` (attribute or text)
    /// has no attributes, so it is checked at once, and a context it opens
    /// closes before the call returns.
    fn act(&mut self, index: &KeyIndex, state: u32, node: NodeId, leaf: bool) {
        let opens = self.dfa.opens_of(state);
        if !opens.is_empty() && !leaf {
            // Only an element that opens a context can raise the peak: a
            // leaf's own contexts close with it.
            let open_total = self.dfa.actions[state as usize].open_total as usize;
            self.peak_open_contexts = self.peak_open_contexts.max(open_total);
        }
        for &k in opens {
            self.keys[k as usize].open(node);
        }
        for &(k, ci) in self.dfa.targets_of(state) {
            let k = k as usize;
            let attrs = self.tally_starts[k]..self.tally_starts[k + 1];
            if leaf || attrs.is_empty() {
                // No attributes to await: the tuple is complete now, and
                // checking at once keeps condition (2) insertion in
                // document order.
                let tallies = &self.absent[..attrs.len()];
                self.keys[k].check(index, k, ci, node, tallies, &self.values);
            } else {
                if self.stamps[k] != node.index() as u32 {
                    self.stamps[k] = node.index() as u32;
                    self.tallies[attrs].fill((0, 0));
                }
                self.pending = Some(node);
            }
        }
        if leaf {
            for &k in opens {
                self.keys[k as usize].close();
            }
        }
    }

    /// Checks the innermost element against the contexts of keys with
    /// attributes it is a target of, if it waits for that (its attribute
    /// section just ended).
    #[inline(always)]
    fn finalize_pending(&mut self, index: &KeyIndex) {
        if let Some(node) = self.pending.take() {
            self.check_pending(index, node);
        }
    }

    fn check_pending(&mut self, index: &KeyIndex, node: NodeId) {
        let state = *self.stack.last().expect("a pending element is open");
        for &(k, ci) in self.dfa.targets_of(state) {
            let k = k as usize;
            let attrs = self.tally_starts[k]..self.tally_starts[k + 1];
            if !attrs.is_empty() {
                let tallies = &self.tallies[attrs];
                self.keys[k].check(index, k, ci, node, tallies, &self.values);
            }
        }
    }
}

impl Names {
    fn element(&self, name: &str) -> u32 {
        self.elements.get(name).copied().unwrap_or(0)
    }

    fn attribute(&self, name: &str) -> u32 {
        self.attributes.get(name).copied().unwrap_or(0)
    }
}

impl Dfa {
    /// The state of a child with `label` of the innermost open element
    /// (of no element: the root), from the cache or freshly interned.  A
    /// clear of the cache renumbers `stack`.
    #[inline]
    fn step(&mut self, stack: &mut [u32], label: u32) -> u32 {
        let next = match stack.last() {
            Some(&parent) => self.next[parent as usize * self.width + label as usize],
            None => self.root,
        };
        if next != NONE {
            return next;
        }
        self.fill(stack, label)
    }

    /// Computes, interns and caches the transition [`step`](Self::step)
    /// missed.
    #[cold]
    fn fill(&mut self, stack: &mut [u32], label: u32) -> u32 {
        if self.actions.len() >= self.bound.max(2 * self.kept) {
            self.clear(stack);
        }
        self.build.clear();
        let Some(&parent) = stack.last() else {
            // The root is reached by the empty word, whatever its label,
            // and no context is open above it.
            for (k, (context, target)) in self.matchers.iter().enumerate() {
                let state = context.start();
                self.build.push((k as u32, state));
                if context.accepts(state) {
                    self.build.push((k as u32 | TARGET, target.start()));
                }
            }
            self.root = self.intern();
            return self.root;
        };
        let label_id = self.labels[label as usize];
        // A key's new context, if the node is one, is its innermost: its
        // start state goes after the key's other target states.
        let mut opened = None;
        for &(tag, state) in self.configs.get(parent) {
            let (context, target) = &self.matchers[(tag & !TARGET) as usize];
            if tag & TARGET != 0 {
                self.build.push((tag, target.step(state, label_id)));
                continue;
            }
            if let Some(k) = opened.take() {
                self.build
                    .push((k | TARGET, self.matchers[k as usize].1.start()));
            }
            let state = context.step(state, label_id);
            self.build.push((tag, state));
            if context.accepts(state) {
                opened = Some(tag);
            }
        }
        if let Some(k) = opened {
            self.build
                .push((k | TARGET, self.matchers[k as usize].1.start()));
        }
        let child = self.intern();
        self.next[parent as usize * self.width + label as usize] = child;
        child
    }

    /// Interns the configuration in `build`, deriving its actions and an
    /// empty transition row if it is new.
    fn intern(&mut self) -> u32 {
        let (id, new) = self.configs.intern(&self.build);
        if new {
            let (opens, targets) = (self.opens.len() as u32, self.targets.len() as u32);
            let mut open_total = 0;
            let mut position = 0;
            for &(tag, state) in &self.build {
                let k = tag & !TARGET;
                let (context, target) = &self.matchers[k as usize];
                if tag & TARGET == 0 {
                    position = 0;
                    if context.accepts(state) {
                        self.opens.push(k);
                    }
                } else {
                    if target.accepts(state) {
                        self.targets.push((k, position));
                    }
                    position += 1;
                    open_total += 1;
                }
            }
            let (opens, targets) = (
                (opens, self.opens.len() as u32),
                (targets, self.targets.len() as u32),
            );
            self.actions.push(Actions {
                opens,
                targets,
                open_total,
                busy: opens.0 < opens.1 || targets.0 < targets.1,
            });
            self.next.resize(self.next.len() + self.labels.len(), NONE);
        }
        id
    }

    /// Empties the cache, then interns again the states of the open
    /// elements and renumbers `stack`.  The bound grows to twice the kept
    /// states, so a document deeper than the bound clears only after as
    /// many new states as it kept.
    fn clear(&mut self, stack: &mut [u32]) {
        self.remap.clear();
        self.remap.resize(self.actions.len(), NONE);
        self.saved.clear();
        self.saved_ends.clear();
        for &state in stack.iter() {
            if self.remap[state as usize] == NONE {
                self.remap[state as usize] = self.saved_ends.len() as u32;
                self.saved.extend_from_slice(self.configs.get(state));
                self.saved_ends.push(self.saved.len());
            }
        }
        self.configs.clear();
        self.actions.clear();
        self.opens.clear();
        self.targets.clear();
        self.next.clear();
        self.root = NONE;
        let mut start = 0;
        for i in 0..self.saved_ends.len() {
            let end = self.saved_ends[i];
            self.build.clear();
            self.build.extend_from_slice(&self.saved[start..end]);
            let id = self.intern();
            debug_assert_eq!(id as usize, i, "kept configurations are distinct");
            start = end;
        }
        for state in stack.iter_mut() {
            *state = self.remap[*state as usize];
        }
        self.kept = self.saved_ends.len();
    }

    /// The keys `state` opens a context for.
    #[inline]
    fn opens_of(&self, state: u32) -> &[u32] {
        let (start, end) = self.actions[state as usize].opens;
        &self.opens[start as usize..end as usize]
    }

    /// The `(key, open-context position)` pairs `state` is a target of.
    #[inline]
    fn targets_of(&self, state: u32) -> &[(u32, u32)] {
        let (start, end) = self.actions[state as usize].targets;
        &self.targets[start as usize..end as usize]
    }
}

impl KeyRun {
    /// Opens a context at `node`, reusing the tuple table of its depth.
    fn open(&mut self, node: NodeId) {
        let ci = self.open.len();
        if ci == self.frames.len() {
            self.frames.push(TupleTable::default());
        }
        self.frames[ci].reset(node);
        self.open.push(OpenContext {
            seq: self.next_seq,
            violations: Vec::new(),
        });
        self.next_seq += 1;
    }

    /// Checks `node` as a target of the `ci`-th open context of key `k`.
    fn check(
        &mut self,
        index: &KeyIndex,
        k: usize,
        ci: u32,
        node: NodeId,
        tallies: &[(u32, u32)],
        values: &SliceInterner<u8>,
    ) {
        let ci = ci as usize;
        let out = Some(&mut self.open[ci].violations);
        index.check_target(k, node, tallies, &mut self.frames[ci], values, out);
    }

    /// Closes the innermost context: orders its violations by target (the
    /// DOM validator reports a context's targets in document order) and
    /// records them under the context's creation order.
    fn close(&mut self) {
        let mut ctx = self.open.pop().expect("the context is open");
        if ctx.violations.is_empty() {
            return;
        }
        ctx.violations.sort_by_key(Violation::target);
        self.done.push((ctx.seq, ctx.violations));
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
    fn contexts_reopened_at_one_depth_start_from_reset_frames() {
        // Three `c` contexts open and close at depth 1 and share frame 0;
        // `k="1"` recurs across them but clashes only inside the first.
        let s = sigma(&["(//c, (//t, {@k}))"]);
        let text = r#"<r><c><x><t k="1"/></x><t k="1"/></c><c><t k="1"/><y><t k="2"/><t k="2"/></y></c><c/></r>"#;
        assert_matches_dom(&s, text);
        let index = KeyIndex::new(&s);
        let mut automaton = KeyAutomaton::new(&index).unwrap();
        let report = automaton.check(&index, text).unwrap();
        let key = &automaton.keys[0];
        assert_eq!(key.frames.len(), 1, "every context opened at one depth");
        assert!(key.open.is_empty(), "every context closed");
        assert_eq!(report.per_key[0].len(), 2);
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

    /// The values of every violation of the one key of `sigma` on `text`,
    /// after checking that streaming matches the DOM validator there.
    fn clash_values(sigma: &KeySet, text: &str) -> Vec<Vec<String>> {
        assert_matches_dom(sigma, text);
        let index = KeyIndex::new(sigma);
        let report = stream_check(&index, text);
        report.per_key[0]
            .iter()
            .map(|v| match v {
                Violation::DuplicateKeyValue { values, .. } => values.clone(),
                other => panic!("unexpected violation {other:?}"),
            })
            .collect()
    }

    #[test]
    fn one_value_spelled_several_ways_is_one_key_value() {
        // Entity-decoded values are owned, plain ones borrowed from the
        // text; both intern by their text.
        let k = sigma(&["(ε, (//b, {@k}))"]);
        assert_eq!(
            clash_values(
                &k,
                r#"<r><b k="a&amp;b"/><b k="a&#38;b"/><b k='a&#x26;b'/></r>"#
            ),
            vec![vec!["a&b"]; 2]
        );
        assert_eq!(
            clash_values(&k, r#"<r><b k="ab"/><b k="a&#98;"/></r>"#),
            vec![vec!["ab"]]
        );
        // Targets that differ only in the second attribute do not clash.
        let km = sigma(&["(ε, (//b, {@k, @m}))"]);
        assert_eq!(
            clash_values(
                &km,
                r#"<r><b k="a&amp;b" m="1"/><b k="a&#38;b" m="2"/><b m="&#49;" k="a&amp;b"/></r>"#
            ),
            vec![vec!["a&b", "1"]]
        );
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

        /// A cache bound of one or two states clears the cache mid-document
        /// and refills it, keeping the open elements' states: the reports
        /// still match the DOM validator, also on a second check by the
        /// same automaton.
        #[test]
        fn a_tiny_cache_clears_mid_document_and_still_matches_batch(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            keys in prop::collection::vec(key_strategy(), 1..5),
            bound in 1usize..3,
        ) {
            let text = to_xml(&build_doc(&steps));
            let doc = Document::parse_str(&text).unwrap();
            let mut index = KeyIndex::new(&KeySet::from_keys(keys));
            let dix = index.index_document(&doc);
            let mut automaton = KeyAutomaton::new(&index).unwrap();
            automaton.dfa.bound = bound;
            for _ in 0..2 {
                let report = automaton.check(&index, &text).unwrap();
                prop_assert_eq!(report.nodes, doc.len());
                for k in 0..index.len() {
                    prop_assert_eq!(
                        &report.per_key[k],
                        &index.violations_of(k, &doc, &dix),
                        "key {} on {}", k, text
                    );
                }
                prop_assert!(automaton.dfa.actions.len() <= bound.max(2 * automaton.dfa.kept));
            }
        }

        /// One automaton checking a run of documents answers each as a
        /// fresh checker does: no state of one check leaks into the next.
        #[test]
        fn a_reused_automaton_matches_a_fresh_checker_per_document(
            docs in prop::collection::vec(
                prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..30),
                1..6,
            ),
            keys in prop::collection::vec(key_strategy(), 1..5),
        ) {
            let index = KeyIndex::new(&KeySet::from_keys(keys));
            let mut automaton = KeyAutomaton::new(&index).unwrap();
            for steps in &docs {
                let text = to_xml(&build_doc(steps));
                prop_assert_eq!(
                    automaton.check(&index, &text).unwrap(),
                    stream_check(&index, &text),
                    "on {}", text
                );
            }
        }
    }

    #[test]
    fn a_clear_keeps_the_open_elements_states() {
        // Four distinct states on one path with a bound of two: the deepest
        // element's transition clears the cache, keeping the three states
        // above it, and the contexts still close where they opened.
        let s = sigma(&["(//a, (b, {@k}))", "(ε, (//b, {@k}))"]);
        let text = r#"<r><a><a><b k="1"/><b k="1"/></a><b k="1"/></a></r>"#;
        assert_matches_dom(&s, text);
        let index = KeyIndex::new(&s);
        let mut automaton = KeyAutomaton::new(&index).unwrap();
        automaton.dfa.bound = 2;
        let report = automaton.check(&index, text).unwrap();
        assert!(automaton.dfa.kept >= 2, "a clear kept the open path");
        let mut doc_index = KeyIndex::new(&s);
        let doc = Document::parse_str(text).unwrap();
        let dix = doc_index.index_document(&doc);
        assert_eq!(report.all_violations(), doc_index.violations(&doc, &dix));
    }

    #[test]
    #[should_panic(expected = "the KeyIndex it was built from")]
    fn an_automaton_refuses_a_different_index() {
        let index = KeyIndex::new(&sigma(&["(ε, (//b, {@k}))"]));
        let other = KeyIndex::new(&sigma(&["(ε, (//b, {@k}))", "(ε, (//c, {}))"]));
        let mut automaton = KeyAutomaton::new(&index).unwrap();
        let _ = automaton.check(&other, "<r/>");
    }
}
