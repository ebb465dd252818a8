//! Compiled path expressions: interned labels plus a precomputed block
//! decomposition.
//!
//! The string-based [`PathExpr`] containment test re-splits both expressions
//! into `Vec<Vec<&str>>` blocks on every call and compares labels by string
//! equality.  For one-shot questions that is fine; the propagation
//! algorithms, however, ask thousands of containment questions against the
//! *same* key set, so this module mirrors the interning approach of
//! `xmlprop_reldb::intern` on the path layer:
//!
//! * [`LabelUniverse`] — a string ↔ [`LabelId`] interning table shared by
//!   element tags and attribute names (`@isbn` interns like any label).  The
//!   table itself lives in `xmlprop_xmltree` (re-exported here), because the
//!   document index stores a `LabelId` per node and both sides of the system
//!   must agree on one universe.
//! * [`CompiledExpr`] — a path expression whose atoms are interned
//!   ([`CompiledExpr::compile`]) and whose block decomposition (label runs
//!   between `//` gaps) is precomputed at compile time, so
//!   [`CompiledExpr::contained_in`] runs the generic decision procedure of [`crate::contained_in`] over
//!   `LabelId` slices with **zero per-call allocation**.
//!   [`CompiledExpr::evaluate`] evaluates `n[[P]]` over a prepared
//!   [`xmlprop_xmltree::DocIndex`] (see [`crate::EvalScratch`]).
//!
//! Two compiled expressions are only comparable when they were compiled
//! against the same universe (or one universe extended from the other —
//! ids are append-only).  Compiling always interns: a label the universe
//! has not seen gets the next fresh id, so two distinct labels never
//! compare equal, and a probe expression compiled into a universe leaves
//! every earlier id and every expression compiled before it valid.

use crate::containment::contained_blocks;
use crate::expr::{Atom, PathExpr};

pub use xmlprop_xmltree::{LabelId, LabelUniverse};

/// One atom of a [`CompiledExpr`]; mirrors [`Atom`] with interned labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompiledAtom {
    /// An interned node label.
    Label(LabelId),
    /// The `//` wildcard.
    AnyPath,
}

/// A compiled path expression: interned atoms plus the precomputed block
/// decomposition the containment algorithm works on.
///
/// Blocks (maximal label runs between `//` gaps) are stored as ranges into
/// one flat label vector; an expression with `g` gaps has exactly `g + 1`
/// blocks (`ε` is one empty block).  Containment and word matching are
/// id-slice comparisons over this precomputed shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompiledExpr {
    atoms: Vec<CompiledAtom>,
    labels: Vec<LabelId>,
    block_ends: Vec<u32>,
}

impl CompiledExpr {
    /// Compiles an expression against `universe`, interning every label it
    /// mentions.
    pub fn compile(expr: &PathExpr, universe: &mut LabelUniverse) -> Self {
        let atoms: Vec<CompiledAtom> = expr
            .atoms()
            .iter()
            .map(|a| match a {
                Atom::Label(l) => CompiledAtom::Label(universe.intern(l)),
                Atom::AnyPath => CompiledAtom::AnyPath,
            })
            .collect();
        CompiledExpr::from_normalized_atoms(atoms)
    }

    /// Builds a compiled expression from normalized atoms (consecutive
    /// `AnyPath` atoms collapsed, as [`PathExpr`] guarantees).
    fn from_normalized_atoms(atoms: Vec<CompiledAtom>) -> Self {
        let mut labels = Vec::with_capacity(atoms.len());
        let mut block_ends = Vec::new();
        for atom in &atoms {
            match atom {
                CompiledAtom::Label(id) => labels.push(*id),
                CompiledAtom::AnyPath => block_ends.push(labels.len() as u32),
            }
        }
        block_ends.push(labels.len() as u32);
        CompiledExpr {
            atoms,
            labels,
            block_ends,
        }
    }

    /// The empty path `ε`.
    pub fn epsilon() -> Self {
        CompiledExpr::from_normalized_atoms(Vec::new())
    }

    /// Builds a compiled expression from already-interned atoms,
    /// normalizing `//` runs (the compiled counterpart of
    /// [`PathExpr::from_atoms`]).  Callers that slice an existing
    /// expression's atoms — the target-to-context splits of key
    /// implication — rebuild the block decomposition through this.
    pub fn from_atoms(atoms: impl IntoIterator<Item = CompiledAtom>) -> Self {
        let mut out: Vec<CompiledAtom> = Vec::new();
        for a in atoms {
            if a == CompiledAtom::AnyPath && out.last() == Some(&CompiledAtom::AnyPath) {
                continue;
            }
            out.push(a);
        }
        CompiledExpr::from_normalized_atoms(out)
    }

    /// The compiled atoms, in order.
    pub fn atoms(&self) -> &[CompiledAtom] {
        &self.atoms
    }

    /// The number of atoms (`|P|`).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if this is the empty path `ε`.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// True if this is the empty path `ε` (alias mirroring
    /// [`PathExpr::is_epsilon`]).
    pub fn is_epsilon(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The number of blocks (gaps + 1).
    #[inline]
    fn num_blocks(&self) -> usize {
        self.block_ends.len()
    }

    /// The `i`-th block as a label slice.
    #[inline]
    fn block(&self, i: usize) -> &[LabelId] {
        let lo = if i == 0 {
            0
        } else {
            self.block_ends[i - 1] as usize
        };
        &self.labels[lo..self.block_ends[i] as usize]
    }

    /// Language containment `self ⊑ other`, allocation-free.  Both sides
    /// must have been compiled against the same universe.
    pub fn contained_in(&self, other: &CompiledExpr) -> bool {
        contained_blocks(
            self.num_blocks(),
            |i| self.block(i),
            other.num_blocks(),
            |i| other.block(i),
        )
    }

    /// Language equivalence (containment in both directions).
    pub fn equivalent(&self, other: &CompiledExpr) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }

    /// Membership of a concrete word (interned label sequence) in this
    /// expression's language, allocation-free.
    #[cfg(test)]
    pub(crate) fn matches_word(&self, word: &[LabelId]) -> bool {
        contained_blocks(1, |_| word, self.num_blocks(), |i| self.block(i))
    }

    /// Concatenation `self / other`, collapsing a `//` shared at the seam
    /// (exactly like [`PathExpr::concat`]).
    pub fn concat(&self, other: &CompiledExpr) -> CompiledExpr {
        let mut atoms = Vec::with_capacity(self.atoms.len() + other.atoms.len());
        atoms.extend_from_slice(&self.atoms);
        for a in &other.atoms {
            if *a == CompiledAtom::AnyPath && atoms.last() == Some(&CompiledAtom::AnyPath) {
                continue;
            }
            atoms.push(*a);
        }
        CompiledExpr::from_normalized_atoms(atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathExpr {
        s.parse().unwrap()
    }

    #[test]
    fn compiled_containment_matches_string_containment() {
        let exprs = [
            "ε",
            "a",
            "b",
            "a/b",
            "//",
            "//a",
            "a//",
            "//a//",
            "a//b",
            "//a/b",
            "b//a",
            "a//a",
            "//b//a",
            "a/b//a",
            "//book/chapter",
            "@x",
            "a/@x",
        ];
        let mut u = LabelUniverse::new();
        let compiled: Vec<CompiledExpr> = exprs
            .iter()
            .map(|e| CompiledExpr::compile(&p(e), &mut u))
            .collect();
        for (i, pe) in exprs.iter().enumerate() {
            for (j, qe) in exprs.iter().enumerate() {
                assert_eq!(
                    compiled[i].contained_in(&compiled[j]),
                    p(pe).contained_in(&p(qe)),
                    "{pe} ⊑ {qe}"
                );
            }
            assert!(compiled[i].equivalent(&compiled[i]));
        }
    }

    #[test]
    fn compiled_shape_accessors() {
        let mut u = LabelUniverse::new();
        let e = CompiledExpr::compile(&p("a/b//c"), &mut u);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert!(!e.is_epsilon());
        assert_eq!(e.num_blocks(), 2);
        assert_eq!(e.block(0).len(), 2);
        assert_eq!(e.block(1).len(), 1);
        let eps = CompiledExpr::compile(&p("ε"), &mut u);
        assert!(eps.is_epsilon());
        assert_eq!(eps.num_blocks(), 1);
        assert!(eps.block(0).is_empty());
    }

    #[test]
    fn compiled_word_matching() {
        let mut u = LabelUniverse::new();
        let q = CompiledExpr::compile(&p("//book/chapter"), &mut u);
        let word = [u.intern("book"), u.intern("chapter")];
        assert!(q.matches_word(&word));
        let word2 = [u.intern("book")];
        assert!(!q.matches_word(&word2));
        assert!(CompiledExpr::compile(&p("//"), &mut u).matches_word(&[]));
        assert!(!CompiledExpr::compile(&p("a"), &mut u).matches_word(&[]));
    }

    #[test]
    fn compiled_concat_matches_string_concat() {
        let cases = [
            ("a//", "//b"),
            ("a", "b"),
            ("ε", "a//b"),
            ("a//b", "ε"),
            ("//", "//"),
        ];
        for (l, r) in cases {
            let mut u = LabelUniverse::new();
            let cl = CompiledExpr::compile(&p(l), &mut u);
            let cr = CompiledExpr::compile(&p(r), &mut u);
            let direct = CompiledExpr::compile(&p(l).concat(&p(r)), &mut u);
            assert_eq!(cl.concat(&cr), direct, "{l} ⋅ {r}");
        }
    }

    #[test]
    fn probe_compilation_keeps_new_labels_distinct() {
        let mut u = LabelUniverse::new();
        let known = CompiledExpr::compile(&p("a/b"), &mut u);
        let probe = CompiledExpr::compile(&p("a/x"), &mut u);
        let probe2 = CompiledExpr::compile(&p("a/x"), &mut u);
        let other = CompiledExpr::compile(&p("a/y"), &mut u);
        // A label seen before keeps its id...
        assert_eq!(probe, probe2);
        // ...and new labels are distinct from each other and from every
        // earlier one.
        assert_ne!(probe, other);
        assert!(!probe.contained_in(&other));
        assert!(!probe.contained_in(&known));
        assert!(!known.contained_in(&probe));
        assert_eq!(u.len(), 4, "a, b, x, y");
        // Containment against patterns still works for probe labels.
        let any = CompiledExpr::compile(&p("//"), &mut u);
        assert!(probe.contained_in(&any));
    }
}
