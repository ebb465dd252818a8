//! Interned node labels: the string ↔ [`LabelId`] table shared by the whole
//! document pipeline.
//!
//! Element tags and attribute names (`@isbn` interns like any label) are
//! mapped to dense `u32` ids so that every layer above — compiled path
//! expressions in `xmlprop-xmlpath`, the prepared key index in
//! `xmlprop-xmlkeys`, shred plans in `xmlprop-xmltransform` — can compare
//! labels with an integer comparison and index plain vectors.  The table
//! lives in this crate (rather than the path crate where the compiled
//! expression layer sits) because [`crate::DocIndex`] stores a `LabelId` per
//! document node: the document side and the constraint side of the system
//! must agree on one universe.
//!
//! Ids are **append-only**: extending a universe (interning a document after
//! compiling a key set, or vice versa) never invalidates previously issued
//! ids, so prepared state built against a prefix of the universe stays
//! valid.  [`LabelUniverse::truncate`] cuts a universe back to such a
//! prefix once nothing names the ids past it.

use crate::hash::FoldState;
use std::collections::HashMap;

/// An interned node label: an index into a [`LabelUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string ↔ [`LabelId`] interning table for node labels and attribute
/// names.
///
/// Ids are dense (`0..len`), assigned in first-intern order, so they can
/// index plain vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelUniverse {
    names: Vec<String>,
    attrs: Vec<bool>,
    /// Name → id; only ever looked up, never iterated.
    ids: HashMap<String, LabelId, FoldState>,
}

impl LabelUniverse {
    /// An empty universe.
    pub fn new() -> Self {
        LabelUniverse::default()
    }

    /// The number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = LabelId(u32::try_from(self.names.len()).expect("label universe overflow"));
        self.names.push(name.to_string());
        self.attrs.push(name.starts_with('@'));
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The id of `name`, if it has been interned.
    pub fn lookup(&self, name: &str) -> Option<LabelId> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this universe.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// All interned names, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True if the id names an attribute (`@`-prefixed label).  Ids past
    /// the interned range answer `false`.
    pub fn is_attr(&self, id: LabelId) -> bool {
        self.attrs.get(id.index()).copied().unwrap_or(false)
    }

    /// Forgets every label past the first `len` (a no-op when there are no
    /// more), so their ids are handed out again.  Only sound when nothing
    /// still in use names one of the forgotten ids: a worker that interns
    /// each document into a clone of a prepared universe truncates back
    /// to the prepared length once the document is indexed.
    pub fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.ids.remove(&name);
        }
        self.attrs.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_round_trips() {
        let mut u = LabelUniverse::new();
        let a = u.intern("book");
        let b = u.intern("@isbn");
        assert_eq!(u.intern("book"), a);
        assert_eq!(u.len(), 2);
        assert_eq!(u.name(a), "book");
        assert_eq!(u.lookup("@isbn"), Some(b));
        assert_eq!(u.lookup("nope"), None);
        assert!(!u.is_attr(a));
        assert!(u.is_attr(b));
        assert!(!u.is_attr(LabelId(99)));
        assert_eq!(u.names(), &["book", "@isbn"]);
        assert!(!u.is_empty());
    }

    #[test]
    fn new_labels_get_fresh_ids_in_first_seen_order() {
        let mut u = LabelUniverse::new();
        let known = u.intern("a");
        let x1 = u.intern("x");
        let x2 = u.intern("x");
        let y = u.intern("y");
        assert_eq!(u.intern("a"), known, "interned ids never move");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        assert_eq!((x1, y), (LabelId(1), LabelId(2)));
    }

    #[test]
    fn truncation_forgets_later_labels_and_reissues_their_ids() {
        let mut u = LabelUniverse::new();
        let book = u.intern("book");
        u.intern("@isbn");
        u.intern("x");
        u.truncate(1);
        assert_eq!((u.len(), u.names()), (1, &["book".to_string()][..]));
        assert_eq!((u.lookup("book"), u.lookup("@isbn")), (Some(book), None));
        assert!(!u.is_attr(LabelId(1)));
        assert_eq!(u.intern("y"), LabelId(1));
        u.truncate(5);
        assert_eq!(u.len(), 2);
    }
}
