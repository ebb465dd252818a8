//! XML keys (class `K^A`): definition, satisfaction and implication.
//!
//! Following Section 2 of *"Propagating XML Constraints to Relations"*, an
//! XML key is written
//!
//! ```text
//! K = (Q, (Q', {@a1, …, @ak}))
//! ```
//!
//! where `Q` is the **context** path, `Q'` the **target** path and the
//! `@ai` are attribute **key paths**.  A document `T` satisfies the key iff
//! for every context node `n ∈ [[Q]]` and every pair of target nodes
//! `n1, n2 ∈ n[[Q']]`:
//!
//! 1. `n1` and `n2` each have a unique `@ai` attribute for every `i`, and
//! 2. if they agree on the values of all the `@ai` then `n1 = n2`.
//!
//! A key is *absolute* when `Q = ε` and *relative* otherwise.
//!
//! This crate provides:
//!
//! * [`XmlKey`] — construction, parsing (`"(//book, (chapter, {@number}))"`)
//!   and display;
//! * [`satisfies`] / [`violations`] — Definition 2.1 over
//!   [`xmlprop_xmltree::Document`]s, with detailed violation reports;
//! * [`KeySet`] — sets `Σ` of keys, the *precedes* relation and the
//!   **transitive set** test of Section 4;
//! * [`implies`] — the key implication test `Σ ⊨ φ` used by the propagation
//!   algorithms, together with [`attributes_assured`], the `exist()`
//!   sub-procedure of Fig. 5;
//! * [`KeyIndex`] — the prepared form of a key set ([`KeySet::prepare`]):
//!   compiled context/target/absolute-target paths, precompiled
//!   target-to-context splits and an attribute → keys index, so repeated
//!   implication and `exist()` queries avoid re-splitting paths and
//!   rescanning `Σ`.  The free functions above are thin one-shot facades
//!   over it.  It also validates documents at scale:
//!   [`KeyIndex::index_document`] + [`KeyIndex::violations`] /
//!   [`KeyIndex::satisfies`] check all keys over a prepared
//!   [`xmlprop_xmltree::DocIndex`] with interned-value key tuples;
//! * [`IncrementalValidator`] — delta-maintained validation state: after a
//!   [`xmlprop_xmltree::Document::apply`] edit (index patched via
//!   [`xmlprop_xmltree::DocIndex::apply_delta`]) it re-runs the batch
//!   check of [`KeyIndex::violations`] only for the contexts on the
//!   edit's ancestor chain or new since the last edit, reproducing
//!   [`KeyIndex::violations`] bit-for-bit at a fraction of the cost.
//!
//! # Implication procedure
//!
//! The full inference system appears only in the authors' technical report;
//! the conference paper names two of its rules (*epsilon* and
//! *target-to-context*) and states that implication is decided in
//! `O(|Σ|·|φ|)` time by examining the keys of `Σ` one at a time.  We
//! implement exactly that shape:
//!
//! * `(Q, (ε, S))` holds whenever every attribute of `S` is assured (by some
//!   key of `Σ`) to exist uniquely on every node reached by `Q`
//!   (the *epsilon* rule for `S = ∅`);
//! * `(Q, (Q', S))` follows from a single key `(Qk, (A/B, Sk)) ∈ Σ` with
//!   `Sk ⊆ S` when `Q ⊑ Qk/A` and `Q' ⊑ B` (the *target-to-context* rule
//!   combined with context/target path containment), provided the extra
//!   attributes `S \ Sk` are assured on the target position.
//!
//! The procedure is **sound** (every implication it reports is a semantic
//! consequence — property-tested against random documents) and reproduces
//! every implication used in the paper's worked examples; like the paper's
//! own algorithm it examines each key of `Σ` independently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod implication;
mod index;
mod key;
mod keyset;
mod satisfy;
mod stream;
pub mod xsd;

pub use delta::IncrementalValidator;
pub use implication::{attribute_assured, attributes_assured, implies, node_unique_under};
pub use index::{IndexedKey, KeyIndex, PreparedKey};
pub use key::{ParseKeyError, XmlKey};
pub use keyset::KeySet;
pub use satisfy::{satisfies, satisfies_all, violations, Violation};
pub use stream::{KeyAutomaton, StreamCheckReport, StreamKeyChecker};
pub use xsd::{import_xsd_keys, XsdImport, XsdImportError};

/// The seven sample keys K1–K7 of Example 2.1 in the paper, over the Fig. 1
/// document.  Exposed here because tests, examples and benchmarks across the
/// workspace all start from them.
pub fn example_2_1_keys() -> KeySet {
    KeySet::from_keys(vec![
        XmlKey::parse("K1: (ε, (//book, {@isbn}))").expect("K1"),
        XmlKey::parse("K2: (//book, (chapter, {@number}))").expect("K2"),
        XmlKey::parse("K3: (//book, (title, {}))").expect("K3"),
        XmlKey::parse("K4: (//book/chapter, (name, {}))").expect("K4"),
        XmlKey::parse("K5: (//book/chapter/section, (name, {}))").expect("K5"),
        XmlKey::parse("K6: (//book/chapter, (section, {@number}))").expect("K6"),
        XmlKey::parse("K7: (//book, (author/contact, {}))").expect("K7"),
    ])
}
