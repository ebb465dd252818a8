//! The prepared form of a key set: compiled paths plus an assured-attribute
//! index.
//!
//! The string-based entry points of this crate ([`crate::implies`],
//! [`crate::attribute_assured`], …) re-split every path expression and
//! re-enumerate every target split on each call.  A [`KeyIndex`] does that
//! work once per key set Σ:
//!
//! * every key's context, target and absolute-target expressions are
//!   compiled ([`xmlprop_xmlpath::CompiledExpr`]) against one shared
//!   [`LabelUniverse`], so containment probes are allocation-free id-slice
//!   comparisons;
//! * the *target-to-context* split pairs `(Q/A, B)` of each key are
//!   compiled once (lazily, on the key's first derivation probe — keys that
//!   an implication query rejects on its attribute tests, and `exist()`
//!   queries, never pay for them), so the single-key derivation rule of
//!   [`crate::implies`] is a scan over ready-made expression pairs;
//! * an attribute → keys index answers `exist()` questions
//!   ([`KeyIndex::attribute_assured`]) without rescanning Σ for the
//!   attribute name.
//!
//! Probe expressions (positions from a table tree, candidate keys) are
//! compiled through the same universe — either by interning
//! ([`KeyIndex::compile`], [`KeyIndex::prepare`]) or read-only with
//! temporary scratch ids ([`KeyIndex::prepare_ref`]), which keeps `&self`
//! query methods available to facades.
//!
//! The index also carries the prepared side of **document validation**
//! (Definition 2.1): [`KeyIndex::index_document`] builds a
//! [`xmlprop_xmltree::DocIndex`] against the shared universe, and
//! [`KeyIndex::violations`] / [`KeyIndex::satisfies`] check every key of Σ
//! over it with compiled path evaluation and hashed interned-value key
//! tuples; the one-shot [`crate::satisfies`] / [`crate::violations`] run
//! it too.

use crate::satisfy::Violation;
use crate::{KeySet, XmlKey};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use xmlprop_xmlpath::{
    CompiledAtom, CompiledExpr, EvalScratch, LabelId, LabelUniverse, PathCompiler, PathExpr,
};
use xmlprop_xmltree::{DocIndex, Document};

/// One key of Σ in compiled form.
#[derive(Debug, Clone)]
pub struct IndexedKey {
    /// The key's attribute ids, sorted by id.
    attrs: Vec<LabelId>,
    /// The key's attribute ids in the key's own (lexicographic
    /// [`XmlKey::key_attrs`]) order — the order the satisfaction semantics
    /// and violation reports enumerate attributes in.
    val_attrs: Vec<LabelId>,
    /// The compiled context path `Q`.
    context: CompiledExpr,
    /// The compiled target path `Q'`.
    target: CompiledExpr,
    /// The compiled absolute target `Q/Q'`.
    absolute: CompiledExpr,
    /// For every split `Q' = A/B` of the target: the compiled derived
    /// context `Q/A` and the compiled remainder `B` (the quantification of
    /// the *target-to-context* rule).  Compiled on first use — entirely at
    /// the interned-atom level, so no universe access is needed (an
    /// `OnceLock` keeps the index `Send + Sync`).
    splits: OnceLock<Vec<(CompiledExpr, CompiledExpr)>>,
}

impl IndexedKey {
    /// The key's attribute ids, sorted.
    pub fn attrs(&self) -> &[LabelId] {
        &self.attrs
    }

    /// The key's attribute ids in the key's own order — the order the
    /// satisfaction semantics and violation reports enumerate attributes
    /// in.
    pub fn val_attrs(&self) -> &[LabelId] {
        &self.val_attrs
    }

    /// The compiled context path `Q`.
    pub fn context(&self) -> &CompiledExpr {
        &self.context
    }

    /// The compiled target path `Q'`.
    pub fn target(&self) -> &CompiledExpr {
        &self.target
    }

    /// The compiled absolute target `Q/Q'`.
    pub fn absolute(&self) -> &CompiledExpr {
        &self.absolute
    }

    /// The compiled `(Q/A, B)` split pairs, built on first use.
    fn splits(&self) -> &[(CompiledExpr, CompiledExpr)] {
        self.splits
            .get_or_init(|| compiled_splits(&self.context, &self.target))
    }
}

/// All ways of writing `target` as a concatenation `A/B`, returned as the
/// derived-context pairs `(context ⋅ A, B)` — the compiled counterpart of
/// [`xmlprop_xmlpath::PathExpr::splits`] followed by the context concat.
/// Splits are taken at every atom boundary; a `//` atom may in addition be
/// shared by both sides (`A// ⋅ //B ≡ A//B`).  Duplicates are dropped.
fn compiled_splits(
    context: &CompiledExpr,
    target: &CompiledExpr,
) -> Vec<(CompiledExpr, CompiledExpr)> {
    let atoms = target.atoms();
    let n = atoms.len();
    let mut parts: Vec<(CompiledExpr, CompiledExpr)> = Vec::with_capacity(n + 2);
    let mut push = |a: CompiledExpr, b: CompiledExpr| {
        if !parts.iter().any(|(pa, pb)| *pa == a && *pb == b) {
            parts.push((a, b));
        }
    };
    for i in 0..=n {
        push(
            CompiledExpr::from_atoms(atoms[..i].iter().copied()),
            CompiledExpr::from_atoms(atoms[i..].iter().copied()),
        );
    }
    for (i, atom) in atoms.iter().enumerate() {
        if *atom == CompiledAtom::AnyPath {
            push(
                CompiledExpr::from_atoms(atoms[..=i].iter().copied()),
                CompiledExpr::from_atoms(atoms[i..].iter().copied()),
            );
        }
    }
    parts
        .into_iter()
        .map(|(a, b)| (context.concat(&a), b))
        .collect()
}

/// A candidate key `φ` compiled for repeated implication queries against
/// one [`KeyIndex`].
#[derive(Debug, Clone)]
pub struct PreparedKey {
    context: CompiledExpr,
    target: CompiledExpr,
    absolute: CompiledExpr,
    attrs: Vec<LabelId>,
}

/// The prepared form of a [`KeySet`]; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    universe: LabelUniverse,
    keys: Vec<IndexedKey>,
    /// For every attribute id: the keys of Σ whose attribute set contains
    /// it — the assured-positions index behind `exist()`.
    assured: Vec<Vec<u32>>,
}

impl KeyIndex {
    /// Prepares a key set: compiles every key and builds the assured index.
    pub fn new(sigma: &KeySet) -> Self {
        let mut universe = LabelUniverse::new();
        let mut keys = Vec::with_capacity(sigma.len());
        for key in sigma.iter() {
            let val_attrs: Vec<LabelId> =
                key.key_attrs().iter().map(|a| universe.intern(a)).collect();
            let mut attrs = val_attrs.clone();
            attrs.sort_unstable();
            let context = universe.compile(key.context());
            let target = universe.compile(key.target());
            let absolute = context.concat(&target);
            keys.push(IndexedKey {
                attrs,
                val_attrs,
                context,
                target,
                absolute,
                splits: OnceLock::new(),
            });
        }
        let mut assured = vec![Vec::new(); universe.len()];
        for (i, key) in keys.iter().enumerate() {
            for a in &key.attrs {
                assured[a.index()].push(i as u32);
            }
        }
        KeyIndex {
            universe,
            keys,
            assured,
        }
    }

    /// The shared label universe (element tags and attribute names alike).
    pub fn universe(&self) -> &LabelUniverse {
        &self.universe
    }

    /// The compiled keys, in Σ order.
    pub fn keys(&self) -> &[IndexedKey] {
        &self.keys
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if Σ is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Compiles a probe expression, interning any new labels it mentions.
    pub fn compile(&mut self, expr: &PathExpr) -> CompiledExpr {
        self.universe.compile(expr)
    }

    /// Interns a single label (element tag or `@attr` name) into the shared
    /// universe, returning its id.
    pub fn intern_label(&mut self, label: &str) -> LabelId {
        self.universe.intern(label)
    }

    /// The id of an attribute name (with or without the leading `@`), if
    /// any key of Σ or any interned probe mentions it.  The `@`-prefixed
    /// form resolves without allocating; the bare form allocates the
    /// prefixed name once for the lookup.
    pub fn attr_id(&self, attr: &str) -> Option<LabelId> {
        if attr.starts_with('@') {
            self.universe.lookup(attr)
        } else {
            self.universe.lookup(&format!("@{attr}"))
        }
    }

    /// Compiles a candidate key for repeated implication queries, interning
    /// its labels.
    pub fn prepare(&mut self, phi: &XmlKey) -> PreparedKey {
        let context = self.universe.compile(phi.context());
        let target = self.universe.compile(phi.target());
        let absolute = context.concat(&target);
        let mut attrs: Vec<LabelId> = phi
            .key_attrs()
            .iter()
            .map(|a| self.universe.intern(a))
            .collect();
        attrs.sort_unstable();
        PreparedKey {
            context,
            target,
            absolute,
            attrs,
        }
    }

    /// Compiles a candidate key **without** interning: labels unknown to
    /// the universe receive consistent temporary ids, which keeps the
    /// containment and assurance answers exact (an unknown label can match
    /// nothing of Σ).
    pub fn prepare_ref(&self, phi: &XmlKey) -> PreparedKey {
        let mut scratch = BTreeMap::new();
        let context = self.universe.compile_scratch(phi.context(), &mut scratch);
        let target = self.universe.compile_scratch(phi.target(), &mut scratch);
        let absolute = context.concat(&target);
        let mut attrs: Vec<LabelId> = phi
            .key_attrs()
            .iter()
            .map(|a| self.universe.lookup_scratch(a, &mut scratch))
            .collect();
        attrs.sort_unstable();
        PreparedKey {
            context,
            target,
            absolute,
            attrs,
        }
    }

    /// True if some key of Σ assures a unique `@attr` on every node of
    /// `[[position]]` — the prepared `exist()` of Fig. 5 for one attribute.
    /// Ids outside the assured index (scratch ids, probe-only labels) are
    /// assured nowhere.
    pub fn attribute_assured(&self, position: &CompiledExpr, attr: LabelId) -> bool {
        self.assured.get(attr.index()).is_some_and(|keys| {
            keys.iter()
                .any(|&k| position.contained_in(&self.keys[k as usize].absolute))
        })
    }

    /// The prepared `exist(P, β)`: every attribute of `attrs` is assured at
    /// `position`.
    pub fn attributes_assured(&self, position: &CompiledExpr, attrs: &[LabelId]) -> bool {
        attrs.iter().all(|&a| self.attribute_assured(position, a))
    }

    /// Key implication `Σ ⊨ φ` for a prepared candidate key.
    pub fn implies(&self, phi: &PreparedKey) -> bool {
        self.implies_parts(&phi.context, &phi.target, &phi.absolute, &phi.attrs)
    }

    /// Key implication `Σ ⊨ (context, (target, attrs))` from compiled
    /// parts; `absolute` must be `context ⋅ target` (callers that walk a
    /// table tree already hold it — e.g. the position of a descendant
    /// variable).  `attrs` must be sorted by id and duplicate-free.
    ///
    /// This is the same rule system as [`crate::implies`] (epsilon,
    /// attribute uniqueness, single-key derivation via the precompiled
    /// splits), executed over the prepared state.
    pub fn implies_parts(
        &self,
        context: &CompiledExpr,
        target: &CompiledExpr,
        absolute: &CompiledExpr,
        attrs: &[LabelId],
    ) -> bool {
        // Rule 1: epsilon.
        if target.is_epsilon() {
            return self.attributes_assured(context, attrs);
        }

        // Rule 1b: attribute uniqueness.
        if let [CompiledAtom::Label(label)] = target.atoms() {
            if self.universe.is_attr(*label)
                && self.attribute_assured(context, *label)
                && self.attributes_assured(absolute, attrs)
            {
                return true;
            }
        }

        // Rule 2: single-key derivation over the precompiled splits.
        for k in &self.keys {
            // Sk ⊆ S.
            if !k.attrs.iter().all(|a| attrs.binary_search(a).is_ok()) {
                continue;
            }
            // Extra attributes of S \ Sk must be assured on the target
            // position.
            let extras_ok = attrs
                .iter()
                .filter(|a| k.attrs.binary_search(a).is_err())
                .all(|&a| self.attribute_assured(absolute, a));
            if !extras_ok {
                continue;
            }
            for (derived_context, b) in k.splits() {
                if context.contained_in(derived_context) && target.contained_in(b) {
                    return true;
                }
            }
        }
        false
    }

    /// The prepared form of [`crate::node_unique_under`]:
    /// `Σ ⊨ (context, (target, {}))`, with `absolute = context ⋅ target`
    /// supplied by the caller.
    pub fn node_unique_under(
        &self,
        context: &CompiledExpr,
        target: &CompiledExpr,
        absolute: &CompiledExpr,
    ) -> bool {
        self.implies_parts(context, target, absolute, &[])
    }

    // ------------------------------------------------------------------
    // Document validation (Definition 2.1 over a prepared DocIndex)
    // ------------------------------------------------------------------

    /// Builds a [`DocIndex`] for `doc` against this index's universe, so
    /// compiled key paths evaluate directly over it.  Ids are append-only:
    /// indexing a document never invalidates existing compiled state, and
    /// several documents can be indexed against one `KeyIndex` in turn.
    pub fn index_document(&mut self, doc: &Document) -> DocIndex {
        DocIndex::build(doc, &mut self.universe)
    }

    /// All violations of every key of Σ in `doc`, in Σ order (empty iff the
    /// document satisfies the whole key set).  `index` must have been built
    /// from `doc` against this universe ([`KeyIndex::index_document`]).
    ///
    /// All keys are validated in a single pass of prepared machinery: the
    /// compiled context/target expressions evaluate over the `DocIndex`
    /// (document order, no `BTreeSet`s), key tuples are compared as hashed
    /// interned-value id vectors instead of `BTreeMap<Vec<String>, _>`
    /// lookups, and all scratch state is reused across contexts and keys.
    pub fn violations(&self, doc: &Document, index: &DocIndex) -> Vec<Violation> {
        index.debug_assert_current(doc);
        let mut out = Vec::new();
        let mut scratch = ValidateScratch::default();
        for k in 0..self.keys.len() {
            self.collect_violations(k, doc, index, &mut scratch, Some(&mut out));
        }
        out
    }

    /// The violations of the `k`-th key of Σ alone (same order as
    /// [`crate::violations`] of that key).
    pub fn violations_of(&self, k: usize, doc: &Document, index: &DocIndex) -> Vec<Violation> {
        index.debug_assert_current(doc);
        let mut out = Vec::new();
        let mut scratch = ValidateScratch::default();
        self.collect_violations(k, doc, index, &mut scratch, Some(&mut out));
        out
    }

    /// True if `doc ⊨ Σ` (every key of the set, Definition 2.1).  Stops at
    /// the first violation instead of collecting them.
    pub fn satisfies(&self, doc: &Document, index: &DocIndex) -> bool {
        index.debug_assert_current(doc);
        let mut scratch = ValidateScratch::default();
        (0..self.keys.len()).all(|k| !self.collect_violations(k, doc, index, &mut scratch, None))
    }

    /// The validation walk of one key: evaluates its contexts over the
    /// `DocIndex` and runs [`KeyIndex::check_context`] under each.  With
    /// `out = Some(..)` every violation is reported; with `None` it stops
    /// at the first.  Returns whether any violation was found.
    fn collect_violations(
        &self,
        k: usize,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ValidateScratch,
        mut out: Option<&mut Vec<Violation>>,
    ) -> bool {
        self.keys[k].context().evaluate_positions(
            index,
            index.position(doc.root()),
            &mut scratch.eval,
            &mut scratch.contexts,
        );
        let contexts = std::mem::take(&mut scratch.contexts);
        let mut found = false;
        for &context_pos in &contexts {
            found |= self.check_context(k, doc, index, context_pos, scratch, out.as_deref_mut());
            if found && out.is_none() {
                break;
            }
        }
        scratch.contexts = contexts;
        found
    }

    /// The key check of Definition 2.1 under one context: evaluates the
    /// `k`-th key's targets below `context_pos` and checks conditions (1)
    /// and (2) with interned-value tuples.  With `out = Some(..)` every
    /// violation is reported, in target order; with `None` it stops at the
    /// first.  Returns whether any violation was found.
    ///
    /// This is the only key check over a `DocIndex`: the batch walk above
    /// and the [`crate::IncrementalValidator`] both run it.
    pub(crate) fn check_context(
        &self,
        k: usize,
        doc: &Document,
        index: &DocIndex,
        context_pos: u32,
        scratch: &mut ValidateScratch,
        mut out: Option<&mut Vec<Violation>>,
    ) -> bool {
        let key = &self.keys[k];
        let context = index.node_at(context_pos);
        let mut found = false;
        key.target().evaluate_positions(
            index,
            context_pos,
            &mut scratch.eval,
            &mut scratch.targets,
        );
        scratch.seen.clear();
        for &target_pos in &scratch.targets {
            let target = index.node_at(target_pos);
            scratch.tuple.clear();
            let mut complete = true;
            for &attr in &key.val_attrs {
                // Count the target's attribute children named `attr`;
                // condition (1) demands exactly one.
                let mut count = 0u32;
                let mut value = 0u32;
                for child in index.children_at(target_pos) {
                    if index.label_at(child) == attr && index.kind_at(child).is_attribute() {
                        count += 1;
                        value = index.value_id_at(child).unwrap_or(0);
                    }
                }
                let attribute = self.universe.name(attr);
                match Violation::from_attribute_count(count, context, target, attribute) {
                    None => scratch.tuple.push(value),
                    Some(violation) => {
                        complete = false;
                        found = true;
                        match out.as_deref_mut() {
                            Some(sink) => sink.push(violation),
                            None => return true,
                        }
                    }
                }
            }
            if !complete {
                continue;
            }
            // Condition (2): no two distinct targets under this context
            // agree on the whole key tuple.
            match scratch.seen.get(&scratch.tuple) {
                Some(&first_pos) => {
                    found = true;
                    match out.as_deref_mut() {
                        Some(sink) => sink.push(Violation::DuplicateKeyValue {
                            context,
                            first: index.node_at(first_pos),
                            second: target,
                            values: self.tuple_strings(key, doc, index, target_pos),
                        }),
                        None => return true,
                    }
                }
                None => {
                    scratch.seen.insert(scratch.tuple.clone(), target_pos);
                }
            }
        }
        found
    }

    /// The actual key-attribute value strings of a complete target, in
    /// key-attribute order — only materialized on the (rare) violation
    /// reporting path.
    fn tuple_strings(
        &self,
        key: &IndexedKey,
        doc: &Document,
        index: &DocIndex,
        target_pos: u32,
    ) -> Vec<String> {
        key.val_attrs
            .iter()
            .map(|&attr| {
                index
                    .children_at(target_pos)
                    .find(|&c| index.label_at(c) == attr && index.kind_at(c).is_attribute())
                    .and_then(|c| doc.text_value(index.node_at(c)))
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }
}

/// Reusable scratch state for the validation walk: frontier vectors for
/// context/target evaluation, the current value tuple, and the
/// tuple → first-target hash map of condition (2).
#[derive(Debug, Default)]
pub(crate) struct ValidateScratch {
    pub(crate) eval: EvalScratch,
    pub(crate) contexts: Vec<u32>,
    targets: Vec<u32>,
    tuple: Vec<u32>,
    seen: HashMap<Vec<u32>, u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example_2_1_keys;
    use crate::satisfy::oracle;

    fn key(s: &str) -> XmlKey {
        XmlKey::parse(s).unwrap()
    }

    #[test]
    fn index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KeyIndex>();
        assert_send_sync::<PreparedKey>();
    }

    #[test]
    fn index_shape() {
        let sigma = example_2_1_keys();
        let index = KeyIndex::new(&sigma);
        assert_eq!(index.len(), 7);
        assert!(!index.is_empty());
        assert!(!index.universe().is_empty());
        // K1 = (ε, (//book, {@isbn})): context ε, one attribute.
        let k1 = &index.keys()[0];
        assert!(k1.context().is_epsilon());
        assert_eq!(k1.attrs().len(), 1);
        assert!(!k1.target().is_epsilon());
        assert_eq!(k1.absolute(), &k1.context().concat(k1.target()));
        // Attribute lookups resolve with and without the `@`.
        assert!(index.attr_id("@isbn").is_some());
        assert_eq!(index.attr_id("isbn"), index.attr_id("@isbn"));
        assert!(index.attr_id("nope").is_none());
    }

    #[test]
    fn prepared_implication_matches_the_examples() {
        let sigma = example_2_1_keys();
        let index = KeyIndex::new(&sigma);
        for (probe, expect) in [
            ("(//book/author, (contact, {}))", true),
            ("(//, (book, {@isbn}))", true),
            ("(//book, (chapter, {@number}))", true),
            ("(ε, (//book/chapter, {@number}))", false),
            ("(//book, (chapter/name, {}))", false),
            ("(//book, (@isbn, {}))", true),
            ("(//book, (@lang, {}))", false),
        ] {
            let phi = index.prepare_ref(&key(probe));
            assert_eq!(index.implies(&phi), expect, "{probe}");
        }
    }

    #[test]
    fn interning_and_scratch_preparation_agree() {
        let sigma = example_2_1_keys();
        let probes = [
            "(//book, (title, {}))",
            "(//unknown/label, (mystery, {@ghost}))",
            "(ε, (ε, {@isbn}))",
            "(//book, (chapter, {@number, @ghost}))",
        ];
        for probe in probes {
            let phi = key(probe);
            let by_ref = {
                let index = KeyIndex::new(&sigma);
                let p = index.prepare_ref(&phi);
                index.implies(&p)
            };
            let by_intern = {
                let mut index = KeyIndex::new(&sigma);
                let p = index.prepare(&phi);
                index.implies(&p)
            };
            assert_eq!(by_ref, by_intern, "{probe}");
        }
    }

    #[test]
    fn prepared_validation_matches_the_oracle_on_the_samples() {
        use xmlprop_xmltree::sample::{fig1, fig1_duplicate_isbn};
        for doc in [fig1(), fig1_duplicate_isbn()] {
            let sigma = example_2_1_keys();
            let mut index = KeyIndex::new(&sigma);
            let dix = index.index_document(&doc);
            let mut oracle_all = Vec::new();
            for (k, key) in sigma.iter().enumerate() {
                let oracle = oracle::violations(&doc, key);
                assert_eq!(index.violations_of(k, &doc, &dix), oracle, "{key}");
                oracle_all.extend(oracle);
            }
            assert_eq!(index.satisfies(&doc, &dix), oracle_all.is_empty());
            assert_eq!(index.violations(&doc, &dix), oracle_all);
        }
    }

    #[test]
    fn prepared_validation_reports_every_violation_kind() {
        use xmlprop_xmltree::ElementBuilder;
        // One book with no isbn, one with two, two sharing a value.
        let mut doc = ElementBuilder::new("r")
            .child(ElementBuilder::new("book"))
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .attr("isbn", "2"),
            )
            .child(ElementBuilder::new("book").attr("isbn", "3"))
            .child(ElementBuilder::new("book").attr("isbn", "3"))
            .build();
        // Mutate out of NodeId order to exercise the DFS numbering path.
        let first_book = doc.element_children(doc.root()).next().unwrap();
        doc.add_element(first_book, "title");
        assert!(!doc.all_nodes().is_sorted());

        let sigma = example_2_1_keys();
        let mut index = KeyIndex::new(&sigma);
        let dix = index.index_document(&doc);
        let k1 = index.violations_of(0, &doc, &dix);
        assert_eq!(k1, oracle::violations(&doc, sigma.iter().next().unwrap()));
        assert!(matches!(k1[0], Violation::MissingAttribute { .. }));
        assert!(matches!(k1[1], Violation::DuplicateAttribute { .. }));
        assert!(
            matches!(k1[2], Violation::DuplicateKeyValue { ref values, .. } if values == &vec!["3".to_string()])
        );
        assert!(!index.satisfies(&doc, &dix));
    }

    #[test]
    fn incomplete_key_tuples_never_count_as_duplicates() {
        use xmlprop_xmltree::ElementBuilder;
        // Two books both missing @isbn: their (absent) key tuples must not
        // hash equal — a null-bearing tuple is exempt from condition (2),
        // so each is a MissingAttribute, never a DuplicateKeyValue.
        let doc = ElementBuilder::new("r")
            .child(ElementBuilder::new("book"))
            .child(ElementBuilder::new("book"))
            .build();
        let sigma = example_2_1_keys();
        let mut index = KeyIndex::new(&sigma);
        let dix = index.index_document(&doc);
        let k1 = index.violations_of(0, &doc, &dix);
        assert_eq!(k1.len(), 2);
        assert!(k1
            .iter()
            .all(|v| matches!(v, Violation::MissingAttribute { .. })));
        assert!(!k1
            .iter()
            .any(|v| matches!(v, Violation::DuplicateKeyValue { .. })));
    }

    #[test]
    fn validation_scales_across_multiple_documents_per_index() {
        use xmlprop_xmltree::ElementBuilder;
        let sigma = example_2_1_keys();
        let mut index = KeyIndex::new(&sigma);
        let good = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "1"))
            .build();
        let bad = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "1"))
            .child(ElementBuilder::new("book").attr("isbn", "1"))
            .build();
        let good_ix = index.index_document(&good);
        let bad_ix = index.index_document(&bad);
        assert!(index.satisfies(&good, &good_ix));
        assert!(!index.satisfies(&bad, &bad_ix));
        assert_eq!(index.violations(&bad, &bad_ix).len(), 1);
    }

    #[test]
    fn assured_index_answers_exist_queries() {
        let sigma = example_2_1_keys();
        let mut index = KeyIndex::new(&sigma);
        let book = index.compile(&"//book".parse().unwrap());
        let chapter = index.compile(&"//book/chapter".parse().unwrap());
        let isbn = index.attr_id("@isbn").unwrap();
        let number = index.attr_id("@number").unwrap();
        assert!(index.attribute_assured(&book, isbn));
        assert!(!index.attribute_assured(&book, number));
        assert!(index.attribute_assured(&chapter, number));
        assert!(index.attributes_assured(&chapter, &[number]));
        assert!(!index.attributes_assured(&chapter, &[number, isbn]));
        // Ids outside the assured index are assured nowhere.
        assert!(!index.attribute_assured(&book, LabelId(9999)));
    }
}

#[cfg(test)]
pub(crate) mod validation_proptests {
    use super::*;
    use crate::satisfy::oracle;
    use proptest::prelude::*;

    /// Builds a document from a mutation script: each step appends an
    /// element, attribute or text node under a pseudo-randomly chosen
    /// earlier element — deliberately exercising out-of-NodeId-order
    /// construction and duplicate attributes (which the paper's model
    /// allows).
    pub(crate) fn build_doc(steps: &[(u8, u8, u8)]) -> Document {
        let mut doc = Document::new("r");
        let mut elements = vec![doc.root()];
        for &(parent, kind, which) in steps {
            let parent = elements[parent as usize % elements.len()];
            match kind % 4 {
                0 | 1 => {
                    let label = ["a", "b", "c"][which as usize % 3];
                    elements.push(doc.add_element(parent, label));
                }
                2 => {
                    let name = ["x", "y"][which as usize % 2];
                    let value = ["0", "1", "2"][which as usize % 3];
                    doc.add_attribute(parent, name, value);
                }
                _ => {
                    doc.add_text(parent, ["t0", "t1"][which as usize % 2]);
                }
            }
        }
        doc
    }

    /// Random keys over the labels of [`build_doc`]: element, attribute
    /// (`@x`) and text (`S`) targets, `//` contexts and contexts that nest
    /// in one another.
    pub(crate) fn key_strategy() -> impl Strategy<Value = XmlKey> {
        let seg = prop_oneof![Just("a"), Just("b"), Just("c")];
        (
            prop::collection::vec(seg.clone(), 0..3),
            prop_oneof![Just(true), Just(false)],
            prop::collection::vec(seg, 0..3),
            prop_oneof![Just(None), Just(Some("@x")), Just(Some("S"))],
            prop::collection::vec(prop_oneof![Just("x"), Just("y")], 0..3),
        )
            .prop_map(|(ctx, ctx_desc, tgt, leaf, attrs)| {
                let mut context = PathExpr::epsilon();
                for (i, l) in ctx.iter().enumerate() {
                    context = if i == 0 && ctx_desc {
                        context.descendant(*l)
                    } else {
                        context.child(*l)
                    };
                }
                let mut target = PathExpr::epsilon();
                for l in tgt.iter().chain(&leaf) {
                    target = target.child(*l);
                }
                XmlKey::new(context, target, attrs)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The prepared validator agrees bit-for-bit with the string oracle
        /// on random documents and random key sets —
        /// including documents whose NodeId order diverges from document
        /// order.
        #[test]
        fn prepared_validation_matches_oracle_on_random_documents(
            steps in prop::collection::vec((0u8..16, 0u8..4, 0u8..6), 0..40),
            keys in prop::collection::vec(key_strategy(), 1..5),
        ) {
            let doc = build_doc(&steps);
            let sigma = KeySet::from_keys(keys);
            let mut index = KeyIndex::new(&sigma);
            let dix = index.index_document(&doc);
            let mut oracle_all = Vec::new();
            for (k, key) in sigma.iter().enumerate() {
                let oracle = oracle::violations(&doc, key);
                prop_assert_eq!(
                    index.violations_of(k, &doc, &dix),
                    oracle.clone(),
                    "key {}", key
                );
                oracle_all.extend(oracle);
            }
            prop_assert_eq!(index.satisfies(&doc, &dix), oracle_all.is_empty());
            prop_assert_eq!(index.violations(&doc, &dix), oracle_all);
            // Sanity: the index numbering really is document order.
            let order: Vec<_> = (0..dix.len() as u32).map(|p| dix.node_at(p)).collect();
            prop_assert_eq!(order, doc.all_nodes());
        }
    }
}
