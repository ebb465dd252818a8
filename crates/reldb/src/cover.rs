//! Cover computation: the paper's `minimize` function and minimum covers.
//!
//! Facade over the interned engine: each function interns its input into an
//! [`AttrUniverse`] (sorted, so results are deterministic and identical to
//! the historical string-based implementation), runs the [`crate::intern`]
//! cover algorithms, and converts back.

use crate::intern::{
    is_nonredundant_interned, minimize_interned, remove_trivial_interned, AttrUniverse,
};
use crate::Fd;

/// Removes trivial FDs (`Y ⊆ X`) and normalizes right-hand sides to single
/// attributes.  Both `naive` and `minimumCover` in the paper work on this
/// canonical form.
pub fn remove_trivial(fds: &[Fd]) -> Vec<Fd> {
    let mut u = AttrUniverse::from_fds(fds);
    let ifds: Vec<_> = fds.iter().map(|fd| u.intern_fd(fd)).collect();
    remove_trivial_interned(&ifds)
        .iter()
        .map(|fd| u.extern_fd(fd))
        .collect()
}

/// The `minimize` function of Section 5 of the paper:
///
/// 1. for each FD, repeatedly drop *extraneous* left-hand-side attributes
///    (an attribute `B ∈ X` is extraneous in `X → Y` if
///    `(X \ {B}) → Y` is still implied by the whole set);
/// 2. drop *redundant* FDs (those implied by the remaining ones).
///
/// The result is a non-redundant cover of the input, i.e. a minimum cover in
/// the sense of Maier/Beeri–Bernstein used by the paper.  The function is
/// quadratic in the size of its input, as stated in Section 5, but every
/// implication test inside is one linear-time counter-based closure.
pub fn minimize(fds: &[Fd]) -> Vec<Fd> {
    let mut u = AttrUniverse::from_fds(fds);
    let ifds: Vec<_> = fds.iter().map(|fd| u.intern_fd(fd)).collect();
    minimize_interned(u.len(), &ifds)
        .iter()
        .map(|fd| u.extern_fd(fd))
        .collect()
}

/// True if no FD in the set is implied by the others and no left-hand-side
/// attribute is extraneous — i.e. the set is already a minimum cover of
/// itself.
pub fn is_nonredundant(fds: &[Fd]) -> bool {
    let mut u = AttrUniverse::from_fds(fds);
    let ifds: Vec<_> = fds.iter().map(|fd| u.intern_fd(fd)).collect();
    is_nonredundant_interned(u.len(), &ifds)
}

/// Computes a minimum cover of an arbitrary FD set.  This is just
/// [`minimize`] — exposed under the textbook name for callers that start
/// from a raw FD set rather than from the propagation algorithms.
pub fn minimum_cover(fds: &[Fd]) -> Vec<Fd> {
    minimize(fds)
}

/// The original string-set `minimize`, kept as the reference oracle for the
/// property tests pinning the interned implementation to it.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::closure::oracle::implies_fixpoint;
    use std::collections::BTreeSet;

    /// `remove_trivial` over string sets (pre-interning implementation).
    pub fn remove_trivial_fixpoint(fds: &[Fd]) -> Vec<Fd> {
        let mut out = Vec::new();
        for fd in fds {
            for single in fd.split_rhs() {
                if !single.is_trivial() && !out.contains(&single) {
                    out.push(single);
                }
            }
        }
        out
    }

    /// `minimize` over string sets (pre-interning implementation).
    pub fn minimize_fixpoint(fds: &[Fd]) -> Vec<Fd> {
        let mut work = remove_trivial_fixpoint(fds);
        for i in 0..work.len() {
            loop {
                let current = work[i].clone();
                let mut reduced = None;
                for b in current.lhs() {
                    let mut smaller: BTreeSet<String> = current.lhs().clone();
                    smaller.remove(b);
                    let candidate = Fd::new(smaller, current.rhs().clone());
                    if implies_fixpoint(&work, &candidate) {
                        reduced = Some(candidate);
                        break;
                    }
                }
                match reduced {
                    Some(candidate) => work[i] = candidate,
                    None => break,
                }
            }
        }
        let mut deduped: Vec<Fd> = Vec::with_capacity(work.len());
        for fd in work {
            if !deduped.contains(&fd) {
                deduped.push(fd);
            }
        }
        let mut result = deduped;
        let mut i = 0;
        while i < result.len() {
            let fd = result[i].clone();
            let mut rest: Vec<Fd> = Vec::with_capacity(result.len() - 1);
            rest.extend_from_slice(&result[..i]);
            rest.extend_from_slice(&result[i + 1..]);
            if implies_fixpoint(&rest, &fd) {
                result.remove(i);
            } else {
                i += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covers_equivalent;

    fn fd(s: &str) -> Fd {
        Fd::parse(s).unwrap()
    }

    #[test]
    fn remove_trivial_splits_and_drops() {
        let fds = vec![fd("a -> a, b"), fd("a, b -> b")];
        let out = remove_trivial(&fds);
        assert_eq!(out, vec![fd("a -> b")]);
    }

    #[test]
    fn minimize_drops_redundant_fd() {
        let fds = vec![fd("a -> b"), fd("b -> c"), fd("a -> c")];
        let cover = minimize(&fds);
        assert_eq!(cover.len(), 2);
        assert!(covers_equivalent(&cover, &fds));
        assert!(is_nonredundant(&cover));
    }

    #[test]
    fn minimize_removes_extraneous_attributes() {
        let fds = vec![fd("a -> b"), fd("a, b -> c")];
        let cover = minimize(&fds);
        assert!(cover.contains(&fd("a -> c")) || covers_equivalent(&cover, &fds));
        // b is extraneous in (a, b) -> c because a -> b.
        assert!(cover.iter().all(|f| f.lhs().len() <= 1));
        assert!(is_nonredundant(&cover));
    }

    #[test]
    fn minimize_is_idempotent() {
        let fds = vec![fd("a -> b"), fd("b -> c"), fd("a -> c"), fd("a, b -> c, a")];
        let once = minimize(&fds);
        let twice = minimize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn minimize_keeps_equivalence_on_cycles() {
        // a <-> b cycles should keep both directions.
        let fds = vec![fd("a -> b"), fd("b -> a"), fd("a -> c"), fd("b -> c")];
        let cover = minimize(&fds);
        assert!(covers_equivalent(&cover, &fds));
        assert!(is_nonredundant(&cover));
        // Exactly one of a -> c / b -> c survives alongside the cycle.
        assert_eq!(cover.len(), 3);
    }

    #[test]
    fn paper_example_3_1_cover_is_already_minimal() {
        let cover = vec![
            fd("bookIsbn -> bookTitle"),
            fd("bookIsbn -> authContact"),
            fd("bookIsbn, chapNum -> chapName"),
            fd("bookIsbn, chapNum, secNum -> secName"),
        ];
        assert!(is_nonredundant(&cover));
        assert!(covers_equivalent(&minimize(&cover), &cover));
        assert_eq!(minimize(&cover).len(), cover.len());
    }

    #[test]
    fn empty_input() {
        assert!(minimize(&[]).is_empty());
        assert!(is_nonredundant(&[]));
        assert!(minimum_cover(&[]).is_empty());
    }

    mod properties {
        use super::super::oracle::{minimize_fixpoint, remove_trivial_fixpoint};
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn fd_strategy() -> impl Strategy<Value = Fd> {
            let attr = prop_oneof![Just("p"), Just("q"), Just("r"), Just("s"), Just("t")];
            (
                prop::collection::btree_set(attr.clone(), 0..4),
                prop::collection::btree_set(attr, 1..3),
            )
                .prop_map(|(lhs, rhs)| {
                    let lhs: BTreeSet<String> = lhs.into_iter().map(str::to_string).collect();
                    let rhs: BTreeSet<String> = rhs.into_iter().map(str::to_string).collect();
                    Fd::new(lhs, rhs)
                })
        }

        proptest! {
            /// The interned `minimize` produces exactly the same cover as
            /// the historical fixpoint implementation — same FDs, same
            /// order — on random FD sets.
            #[test]
            fn minimize_matches_fixpoint(
                fds in prop::collection::vec(fd_strategy(), 0..10),
            ) {
                prop_assert_eq!(minimize(&fds), minimize_fixpoint(&fds));
            }

            /// Canonicalization agrees with the string-based original.
            #[test]
            fn remove_trivial_matches_fixpoint(
                fds in prop::collection::vec(fd_strategy(), 0..10),
            ) {
                prop_assert_eq!(remove_trivial(&fds), remove_trivial_fixpoint(&fds));
            }

            /// The minimized cover is equivalent to and non-redundant for
            /// its input (the semantic contract, independent of the oracle).
            #[test]
            fn minimize_is_sound(
                fds in prop::collection::vec(fd_strategy(), 0..10),
            ) {
                let cover = minimize(&fds);
                prop_assert!(covers_equivalent(&cover, &fds));
                prop_assert!(is_nonredundant(&cover));
            }
        }
    }
}
