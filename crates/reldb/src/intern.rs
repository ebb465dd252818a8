//! Interned attribute universe and the linear-time FD engine.
//!
//! The public FD toolbox of this crate ([`crate::closure`],
//! [`crate::implies`], [`crate::minimize`], …) speaks `BTreeSet<String>` —
//! convenient for the paper's examples, but every Armstrong derivation over
//! it allocates and compares strings.  This module is the engine underneath:
//!
//! * [`AttrUniverse`] — a string ↔ [`AttrId`] interning table, one per
//!   schema or universal relation;
//! * [`AttrSet`] — an attribute set as a bitset over `AttrId`s, with O(w)
//!   subset/union/difference for `w` machine words;
//! * [`IFd`] — a functional dependency over interned attribute sets;
//! * [`FdIndex`] — a prepared FD set answering attribute-closure and
//!   implication queries with the counter-based Beeri–Bernstein algorithm,
//!   **linear** in the total size of the FD set (the complexity the paper
//!   quotes for FD implication);
//! * [`minimize_interned`] / [`remove_trivial_interned`] /
//!   [`is_nonredundant_interned`] — the cover computations behind
//!   [`crate::minimize`] / [`crate::remove_trivial`] /
//!   [`crate::is_nonredundant`], running entirely on interned sets.
//!
//! The `String`-based functions of this crate are thin facades that intern
//! at the boundary and delegate here; callers with a hot loop (the
//! `xmlprop-core` algorithms, the benchmarks) intern once and stay interned.

use crate::Fd;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::HashSet;
use std::fmt;

/// An interned attribute: an index into an [`AttrUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string ↔ [`AttrId`] interning table.
///
/// Ids are dense (`0..len`), assigned in first-intern order, so they can
/// index plain vectors and back the [`AttrSet`] bitsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttrUniverse {
    names: Vec<String>,
    ids: BTreeMap<String, AttrId>,
}

impl AttrUniverse {
    /// An empty universe.
    pub fn new() -> Self {
        AttrUniverse::default()
    }

    /// A universe pre-populated with the given names (duplicates welcome),
    /// interned in sorted order — so that id order equals `BTreeSet<String>`
    /// iteration order, keeping interned algorithms deterministic and
    /// bit-compatible with their string-based ancestors.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let sorted: BTreeSet<&str> = names.into_iter().collect();
        let mut u = AttrUniverse::new();
        for name in sorted {
            u.intern(name);
        }
        u
    }

    /// A sorted universe ([`AttrUniverse::from_names`]) over every attribute
    /// mentioned by `fds`.
    pub fn from_fds<'a>(fds: impl IntoIterator<Item = &'a Fd>) -> Self {
        Self::from_names(
            fds.into_iter()
                .flat_map(|fd| fd.lhs().iter().chain(fd.rhs().iter()).map(String::as_str)),
        )
    }

    /// A sorted universe over every attribute mentioned by `fds` plus the
    /// `extra` names (a relation's attribute set, typically).
    pub fn from_fds_and_attrs<'a>(
        fds: impl IntoIterator<Item = &'a Fd>,
        extra: impl IntoIterator<Item = &'a String>,
    ) -> Self {
        Self::from_names(
            fds.into_iter()
                .flat_map(|fd| fd.lhs().iter().chain(fd.rhs().iter()))
                .chain(extra)
                .map(String::as_str),
        )
    }

    /// The number of interned attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = AttrId(u32::try_from(self.names.len()).expect("attribute universe overflow"));
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The id of `name`, if it has been interned.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this universe.
    pub fn name(&self, id: AttrId) -> &str {
        &self.names[id.index()]
    }

    /// All interned names, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Interns every attribute of a string set.
    pub fn intern_set<'a>(&mut self, attrs: impl IntoIterator<Item = &'a String>) -> AttrSet {
        let mut set = AttrSet::new();
        for a in attrs {
            set.insert(self.intern(a));
        }
        set
    }

    /// The [`AttrSet`] of an already-interned string set; attributes never
    /// interned are silently dropped (they can take part in no FD of this
    /// universe).
    pub fn lookup_set<'a>(&self, attrs: impl IntoIterator<Item = &'a String>) -> AttrSet {
        let mut set = AttrSet::new();
        for a in attrs {
            if let Some(id) = self.lookup(a) {
                set.insert(id);
            }
        }
        set
    }

    /// Interns a [`Fd`] into an [`IFd`].
    pub fn intern_fd(&mut self, fd: &Fd) -> IFd {
        IFd {
            lhs: self.intern_set(fd.lhs()),
            rhs: self.intern_set(fd.rhs()),
        }
    }

    /// Converts an [`AttrSet`] back to attribute names.
    pub fn extern_set(&self, set: &AttrSet) -> BTreeSet<String> {
        set.iter().map(|id| self.name(id).to_string()).collect()
    }

    /// A deterministic `(size, names)` ordering key for a set — the order
    /// the string-based algorithms historically used for tie-breaking
    /// (smallest set first, then lexicographic by attribute names).
    pub fn names_key(&self, set: &AttrSet) -> (usize, Vec<String>) {
        (
            set.len(),
            set.iter().map(|id| self.name(id).to_string()).collect(),
        )
    }

    /// Converts an [`IFd`] back to a string-based [`Fd`].
    pub fn extern_fd(&self, fd: &IFd) -> Fd {
        Fd::new(self.extern_set(&fd.lhs), self.extern_set(&fd.rhs))
    }
}

const BLOCK_BITS: usize = 64;

/// A set of [`AttrId`]s as a bitset.
///
/// Blocks are `u64` words; the invariant that the last block is non-zero
/// (enforced by every mutating operation) makes the derived equality, order
/// and hash agree with set equality.  All binary operations treat missing
/// high blocks as zeros, so sets over the same universe compose regardless
/// of which attributes each happens to contain.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrSet {
    blocks: Vec<u64>,
}

impl AttrSet {
    /// The empty set.
    pub fn new() -> Self {
        AttrSet::default()
    }

    /// The set `{0, …, n-1}` — every attribute of a universe of size `n`.
    pub fn all(n: usize) -> Self {
        let mut set = AttrSet::new();
        for i in 0..n {
            set.insert(AttrId(i as u32));
        }
        set
    }

    fn trim(&mut self) {
        while self.blocks.last() == Some(&0) {
            self.blocks.pop();
        }
    }

    /// Inserts an id; returns true if it was not already present.
    pub fn insert(&mut self, id: AttrId) -> bool {
        let (block, bit) = (id.index() / BLOCK_BITS, id.index() % BLOCK_BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes an id; returns true if it was present.
    pub fn remove(&mut self, id: AttrId) -> bool {
        let (block, bit) = (id.index() / BLOCK_BITS, id.index() % BLOCK_BITS);
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << bit;
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        self.trim();
        present
    }

    /// True if the id is in the set.
    pub fn contains(&self, id: AttrId) -> bool {
        let (block, bit) = (id.index() / BLOCK_BITS, id.index() % BLOCK_BITS);
        self.blocks.get(block).is_some_and(|b| b & (1 << bit) != 0)
    }

    /// The number of attributes in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .all(|(i, b)| b & !other.blocks.get(i).copied().unwrap_or(0) == 0)
    }

    /// True if `self ⊇ other`.
    pub fn is_superset(&self, other: &AttrSet) -> bool {
        other.is_subset(self)
    }

    /// Adds every attribute of `other` to `self`.
    pub fn union_with(&mut self, other: &AttrSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (i, b) in other.blocks.iter().enumerate() {
            self.blocks[i] |= b;
        }
    }

    /// Removes every attribute of `other` from `self`.
    pub fn difference_with(&mut self, other: &AttrSet) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            *b &= !other.blocks.get(i).copied().unwrap_or(0);
        }
        self.trim();
    }

    /// Keeps only the attributes also in `other`.
    pub fn intersect_with(&mut self, other: &AttrSet) {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            *b &= other.blocks.get(i).copied().unwrap_or(0);
        }
        self.trim();
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &AttrSet) -> AttrSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &AttrSet) -> AttrSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Iterates the ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let base = (i * BLOCK_BITS) as u32;
            BitIter { block }.map(move |bit| AttrId(base + bit))
        })
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let mut set = AttrSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

struct BitIter {
    block: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.block == 0 {
            return None;
        }
        let bit = self.block.trailing_zeros();
        self.block &= self.block - 1;
        Some(bit)
    }
}

/// A functional dependency over interned attribute sets.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IFd {
    /// The left-hand side `X`.
    pub lhs: AttrSet,
    /// The right-hand side `Y`.
    pub rhs: AttrSet,
}

impl IFd {
    /// Creates the FD `lhs → rhs`.
    pub fn new(lhs: AttrSet, rhs: AttrSet) -> Self {
        IFd { lhs, rhs }
    }

    /// True if `Y ⊆ X`.
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset(&self.lhs)
    }
}

impl fmt::Display for IFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |set: &AttrSet| {
            set.iter()
                .map(|id| format!("#{}", id.0))
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(f, "{} -> {}", side(&self.lhs), side(&self.rhs))
    }
}

/// A prepared FD set answering closure and implication queries in linear
/// time (Beeri–Bernstein).
///
/// Construction is linear in the total size of the FD set; each
/// [`FdIndex::closure`] / [`FdIndex::implies`] call is again linear — every
/// FD fires at most once, driven by per-FD counters of left-hand-side
/// attributes not yet known to be in the closure.
#[derive(Debug, Clone)]
pub struct FdIndex {
    fds: Vec<IFd>,
    /// `|lhs|` of each FD — the counter start values.
    lhs_sizes: Vec<u32>,
    /// For each attribute id: the FDs whose left-hand side contains it.
    by_attr: Vec<Vec<u32>>,
    /// FDs with an empty left-hand side (they fire unconditionally).
    empty_lhs: Vec<u32>,
}

impl FdIndex {
    /// Indexes `fds` over a universe of `n_attrs` attributes.
    ///
    /// Ids appearing in the FDs must be `< n_attrs`; seed attributes passed
    /// to [`FdIndex::closure`] later may exceed it (they then trigger no FD,
    /// which is the correct semantics for attributes no FD mentions).
    pub fn new(n_attrs: usize, fds: &[IFd]) -> Self {
        let mut by_attr = vec![Vec::new(); n_attrs];
        let mut lhs_sizes = Vec::with_capacity(fds.len());
        let mut empty_lhs = Vec::new();
        for (i, fd) in fds.iter().enumerate() {
            let size = fd.lhs.len();
            lhs_sizes.push(size as u32);
            if size == 0 {
                empty_lhs.push(i as u32);
            }
            for a in fd.lhs.iter() {
                by_attr[a.index()].push(i as u32);
            }
        }
        FdIndex {
            fds: fds.to_vec(),
            lhs_sizes,
            by_attr,
            empty_lhs,
        }
    }

    /// The indexed FDs.
    pub fn fds(&self) -> &[IFd] {
        &self.fds
    }

    /// The closure `X⁺` of `seed` under the indexed FDs.
    pub fn closure(&self, seed: &AttrSet) -> AttrSet {
        self.closure_filtered(seed, |_| true)
    }

    /// True if the indexed FDs imply `fd`.
    pub fn implies(&self, fd: &IFd) -> bool {
        fd.rhs.is_subset(&self.closure(&fd.lhs))
    }

    /// The closure of `seed` under the indexed FDs for which `alive` holds —
    /// the redundancy tests of cover minimization need closures that ignore
    /// one (or a shrinking subset of) the FDs without re-indexing.
    pub fn closure_filtered(&self, seed: &AttrSet, alive: impl Fn(usize) -> bool) -> AttrSet {
        let mut counters = self.lhs_sizes.clone();
        let mut result = seed.clone();
        let mut queue: Vec<AttrId> = seed.iter().collect();
        for &i in &self.empty_lhs {
            if alive(i as usize) {
                for b in self.fds[i as usize].rhs.iter() {
                    if result.insert(b) {
                        queue.push(b);
                    }
                }
            }
        }
        while let Some(a) = queue.pop() {
            let Some(fd_ids) = self.by_attr.get(a.index()) else {
                continue; // seed attribute outside the indexed universe
            };
            for &fi in fd_ids {
                let fi = fi as usize;
                counters[fi] -= 1;
                if counters[fi] == 0 && alive(fi) {
                    for b in self.fds[fi].rhs.iter() {
                        if result.insert(b) {
                            queue.push(b);
                        }
                    }
                }
            }
        }
        result
    }
}

/// Splits right-hand sides to single attributes and drops trivial FDs —
/// the interned counterpart of [`crate::remove_trivial`], preserving first
/// occurrence order.
pub fn remove_trivial_interned(fds: &[IFd]) -> Vec<IFd> {
    let mut out: Vec<IFd> = Vec::new();
    for fd in fds {
        for a in fd.rhs.iter() {
            if !fd.lhs.contains(a) {
                out.push(IFd {
                    lhs: fd.lhs.clone(),
                    rhs: std::iter::once(a).collect(),
                });
            }
        }
    }
    dedup_keep_first(out)
}

/// `fds` without repeats, each kept at its first occurrence.
fn dedup_keep_first(fds: Vec<IFd>) -> Vec<IFd> {
    let mut seen: HashSet<IFd> = HashSet::with_capacity(fds.len());
    fds.into_iter()
        .filter(|fd| seen.insert(fd.clone()))
        .collect()
}

/// The paper's `minimize` on interned FDs: removes extraneous left-hand-side
/// attributes, then redundant FDs.  `n_attrs` is the universe size.
///
/// Equivalent to the input under Armstrong's axioms and non-redundant; the
/// outer structure is quadratic (as Section 5 states) but every implication
/// test inside is a single linear-time closure.
pub fn minimize_interned(n_attrs: usize, fds: &[IFd]) -> Vec<IFd> {
    let mut work = remove_trivial_interned(fds);

    // Step 1: drop extraneous attributes.  The implication test runs against
    // the full current set (including the FD under reduction, whose original
    // left-hand side cannot help derive its own reduction).  One index over
    // the starting set serves every test: each reduction swaps an FD for one
    // that the set implies and that implies it back, so the reduced set is
    // equivalent and every closure stays the same.
    let index = FdIndex::new(n_attrs, &work);
    for fd in &mut work {
        loop {
            let mut reduced = None;
            for b in fd.lhs.iter() {
                let mut smaller = fd.lhs.clone();
                smaller.remove(b);
                if fd.rhs.is_subset(&index.closure(&smaller)) {
                    reduced = Some(smaller);
                    break;
                }
            }
            match reduced {
                Some(smaller) => fd.lhs = smaller,
                None => break,
            }
        }
    }

    // Deduplicate (reductions may have collapsed FDs together).
    let deduped = dedup_keep_first(work);

    // Step 2: drop redundant FDs.  One index over the deduplicated set and a
    // liveness mask replace the per-removal set rebuilds of the string-based
    // ancestor.
    let index = FdIndex::new(n_attrs, &deduped);
    let mut alive = vec![true; deduped.len()];
    for i in 0..deduped.len() {
        alive[i] = false;
        let closure = index.closure_filtered(&deduped[i].lhs, |j| alive[j]);
        if !deduped[i].rhs.is_subset(&closure) {
            alive[i] = true;
        }
    }
    deduped
        .into_iter()
        .zip(alive)
        .filter_map(|(fd, keep)| keep.then_some(fd))
        .collect()
}

/// True if no FD is implied by the others and no left-hand-side attribute is
/// extraneous — the interned counterpart of [`crate::is_nonredundant`].
pub fn is_nonredundant_interned(n_attrs: usize, fds: &[IFd]) -> bool {
    let index = FdIndex::new(n_attrs, fds);
    for (i, fd) in fds.iter().enumerate() {
        if fd
            .rhs
            .is_subset(&index.closure_filtered(&fd.lhs, |j| j != i))
        {
            return false;
        }
        for b in fd.lhs.iter() {
            let mut smaller = fd.lhs.clone();
            smaller.remove(b);
            if fd.rhs.is_subset(&index.closure(&smaller)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> AttrSet {
        raw.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn universe_interning_round_trips() {
        let mut u = AttrUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        assert_eq!(u.intern("a"), a);
        assert_eq!(u.len(), 2);
        assert_eq!(u.name(a), "a");
        assert_eq!(u.lookup("b"), Some(b));
        assert_eq!(u.lookup("zzz"), None);
        let fd = Fd::parse("a, b -> c").unwrap();
        let ifd = u.intern_fd(&fd);
        assert_eq!(u.len(), 3);
        assert_eq!(u.extern_fd(&ifd), fd);
    }

    #[test]
    fn universe_from_fds_is_sorted() {
        let fds = vec![Fd::parse("z -> m").unwrap(), Fd::parse("a -> z").unwrap()];
        let u = AttrUniverse::from_fds(&fds);
        assert_eq!(u.names(), &["a", "m", "z"]);

        let extra = ["q".to_string(), "a".to_string()];
        let u = AttrUniverse::from_fds_and_attrs(&fds, extra.iter());
        assert_eq!(u.names(), &["a", "m", "q", "z"]);

        let u = AttrUniverse::from_names(["b", "a", "b"]);
        assert_eq!(u.names(), &["a", "b"]);
    }

    #[test]
    fn names_key_orders_by_size_then_lexicographically() {
        let u = AttrUniverse::from_names(["a", "b", "c"]);
        let set =
            |names: &[&str]| -> AttrSet { names.iter().map(|n| u.lookup(n).unwrap()).collect() };
        let mut sets = vec![set(&["b"]), set(&["a", "c"]), set(&["a", "b"]), set(&["a"])];
        sets.sort_by_cached_key(|s| u.names_key(s));
        assert_eq!(
            sets,
            vec![set(&["a"]), set(&["b"]), set(&["a", "b"]), set(&["a", "c"])]
        );
    }

    #[test]
    fn attr_set_operations() {
        let mut s = AttrSet::new();
        assert!(s.insert(AttrId(3)));
        assert!(s.insert(AttrId(70)));
        assert!(!s.insert(AttrId(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(AttrId(70)));
        assert!(!s.contains(AttrId(0)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![AttrId(3), AttrId(70)]);

        // Removing the high bit trims blocks so equality stays structural.
        assert!(s.remove(AttrId(70)));
        assert!(!s.remove(AttrId(70)));
        assert_eq!(s, ids(&[3]));

        let a = ids(&[1, 2, 65]);
        let b = ids(&[2, 65, 100]);
        assert_eq!(a.union(&b), ids(&[1, 2, 65, 100]));
        assert_eq!(a.intersection(&b), ids(&[2, 65]));
        assert_eq!(a.difference(&b), ids(&[1]));
        assert!(ids(&[2, 65]).is_subset(&a));
        assert!(a.is_superset(&ids(&[2, 65])));
        assert!(!a.is_subset(&b));
        assert!(AttrSet::new().is_subset(&a));
        assert!(AttrSet::new().is_empty());
        assert_eq!(AttrSet::all(3), ids(&[0, 1, 2]));
    }

    #[test]
    fn linear_closure_matches_hand_computation() {
        // a -> b, b -> c, (c, d) -> e over ids 0..5.
        let fds = vec![
            IFd::new(ids(&[0]), ids(&[1])),
            IFd::new(ids(&[1]), ids(&[2])),
            IFd::new(ids(&[2, 3]), ids(&[4])),
        ];
        let index = FdIndex::new(5, &fds);
        assert_eq!(index.closure(&ids(&[0])), ids(&[0, 1, 2]));
        assert_eq!(index.closure(&ids(&[0, 3])), ids(&[0, 1, 2, 3, 4]));
        assert_eq!(index.closure(&ids(&[3])), ids(&[3]));
        assert_eq!(index.closure(&AttrSet::new()), AttrSet::new());
        assert!(index.implies(&IFd::new(ids(&[0]), ids(&[2]))));
        assert!(!index.implies(&IFd::new(ids(&[1]), ids(&[0]))));
    }

    #[test]
    fn empty_lhs_fds_fire_unconditionally() {
        let fds = vec![
            IFd::new(AttrSet::new(), ids(&[0])),
            IFd::new(ids(&[0]), ids(&[1])),
        ];
        let index = FdIndex::new(2, &fds);
        assert_eq!(index.closure(&AttrSet::new()), ids(&[0, 1]));
    }

    #[test]
    fn closure_accepts_seed_attributes_outside_the_index() {
        let fds = vec![IFd::new(ids(&[0]), ids(&[1]))];
        let index = FdIndex::new(2, &fds);
        // Id 9 was never indexed; it stays in the closure and breaks nothing.
        assert_eq!(index.closure(&ids(&[0, 9])), ids(&[0, 1, 9]));
    }

    #[test]
    fn minimize_interned_basic() {
        // a -> b, b -> c, a -> c (redundant), (a, b) -> c (extraneous + dup).
        let fds = vec![
            IFd::new(ids(&[0]), ids(&[1])),
            IFd::new(ids(&[1]), ids(&[2])),
            IFd::new(ids(&[0]), ids(&[2])),
            IFd::new(ids(&[0, 1]), ids(&[2])),
        ];
        let cover = minimize_interned(3, &fds);
        assert_eq!(cover.len(), 2);
        assert!(is_nonredundant_interned(3, &cover));
        let index = FdIndex::new(3, &cover);
        assert!(index.implies(&IFd::new(ids(&[0]), ids(&[2]))));
    }

    #[test]
    fn remove_trivial_interned_splits_and_drops() {
        let fds = vec![
            IFd::new(ids(&[0]), ids(&[0, 1])),
            IFd::new(ids(&[0, 1]), ids(&[1])),
        ];
        let out = remove_trivial_interned(&fds);
        assert_eq!(out, vec![IFd::new(ids(&[0]), ids(&[1]))]);
    }

    #[test]
    fn ifd_display_is_readable() {
        let fd = IFd::new(ids(&[0, 2]), ids(&[1]));
        assert_eq!(fd.to_string(), "#0, #2 -> #1");
        assert!(!fd.is_trivial());
        assert!(IFd::new(ids(&[1]), ids(&[1])).is_trivial());
    }
}
