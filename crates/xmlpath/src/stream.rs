//! Incremental word matching for the streaming front end.
//!
//! The DOM evaluator ([`CompiledExpr::evaluate`]) answers `n[[P]]` with the
//! whole label word in hand.  The streaming key checker instead descends the
//! document one label at a time and needs, at every open node, the answer to
//! "could the path from the context node to here (or below) still match
//! `P`?" — a classic NFA simulation.
//!
//! [`StreamMatcher`] compiles a [`CompiledExpr`] into exactly that: a
//! Thompson-style NFA whose states are positions between atoms, carried in a
//! single `u128` bitmask ([`MatchState`]).  Position `i` means "a prefix of
//! the word has matched `atoms[..i]`"; position `len(atoms)` is the accept
//! state.  `//` atoms contribute a self-loop (consume any label) plus an
//! ε-edge (consume nothing), which is closed eagerly so a state is always
//! ε-closed.  An expression of more than 127 atoms does not fit the mask,
//! and [`StreamMatcher::new`] refuses it with [`PathTooLong`]; callers
//! validate such keys on the tree instead.
//!
//! Matching agrees with [`CompiledExpr::matches_word`] label for label — a
//! property pinned by proptest-style exhaustive tests below — and one
//! `step` is a couple of bit operations per atom, allocation-free, so the
//! per-event cost of the streaming path stays flat.

use crate::compile::{CompiledAtom, CompiledExpr};
use std::fmt;
use xmlprop_xmltree::LabelId;

/// The most atoms a [`StreamMatcher`] supports: its state set is a `u128`
/// bitmask over `atoms + 1` positions.
const MAX_STREAM_ATOMS: usize = 127;

/// A path expression with more than 127 atoms, refused by
/// [`StreamMatcher::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTooLong {
    /// The expression's atom count.
    pub atoms: usize,
}

impl fmt::Display for PathTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "path expression has {} atoms; stream matching supports at most {MAX_STREAM_ATOMS}",
            self.atoms
        )
    }
}

impl std::error::Error for PathTooLong {}

/// The NFA state set of one in-progress match, as a position bitmask.
///
/// Obtained from [`StreamMatcher::start`] and advanced with
/// [`StreamMatcher::step`]; `Copy`, so the key checker can stack
/// them per document depth without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchState(u128);

/// A compiled path expression in NFA form, for label-at-a-time matching.
///
/// # Example
///
/// ```
/// use xmlprop_xmlpath::{CompiledExpr, LabelUniverse, StreamMatcher};
///
/// let mut u = LabelUniverse::new();
/// let expr = CompiledExpr::compile(&"//book/chapter".parse().unwrap(), &mut u);
/// let matcher = StreamMatcher::new(&expr).unwrap();
///
/// let mut state = matcher.start();
/// assert!(!matcher.accepts(state));
/// state = matcher.step(state, u.lookup("book"));
/// state = matcher.step(state, u.lookup("chapter"));
/// assert!(matcher.accepts(state));
/// ```
#[derive(Debug, Clone)]
pub struct StreamMatcher {
    /// Positions whose atom is `Label(l)`, indexed by `l`'s raw id; labels
    /// past the table (or `None`) have no consuming positions.  The masks
    /// are dense in the label id space, which the interner keeps small.
    label_masks: Vec<u128>,
    /// Positions whose atom is `//` (self-loop on every label).
    any_mask: u128,
    /// The accept position, `1 << atoms.len()`.
    accept_mask: u128,
    start: MatchState,
}

impl StreamMatcher {
    /// Compiles `expr` into NFA form, or refuses it with [`PathTooLong`]
    /// if it has more than 127 atoms.  Paper-style path expressions are a
    /// handful of atoms; the limit exists only to keep states `Copy`.
    pub fn new(expr: &CompiledExpr) -> Result<Self, PathTooLong> {
        let atoms = expr.atoms();
        if atoms.len() > MAX_STREAM_ATOMS {
            return Err(PathTooLong { atoms: atoms.len() });
        }
        let mut any_mask = 0u128;
        let mut max_label = 0usize;
        for atom in atoms {
            match atom {
                CompiledAtom::Label(l) => max_label = max_label.max(l.index() + 1),
                CompiledAtom::AnyPath => {}
            }
        }
        let mut label_masks = vec![0u128; max_label];
        for (i, atom) in atoms.iter().enumerate() {
            match atom {
                CompiledAtom::Label(l) => label_masks[l.index()] |= 1u128 << i,
                CompiledAtom::AnyPath => any_mask |= 1u128 << i,
            }
        }
        let mut matcher = StreamMatcher {
            label_masks,
            any_mask,
            accept_mask: 1u128 << atoms.len(),
            start: MatchState(0),
        };
        matcher.start = matcher.close(MatchState(1));
        Ok(matcher)
    }

    /// The initial state: the empty word has been consumed.
    #[inline]
    pub fn start(&self) -> MatchState {
        self.start
    }

    /// True if the word consumed to reach `state` is in the language.
    #[inline]
    pub fn accepts(&self, state: MatchState) -> bool {
        state.0 & self.accept_mask != 0
    }

    /// Advances `state` by one label.  `None` (a label absent from the
    /// universe) can only be consumed by `//` — it never equals an interned
    /// label, mirroring the DOM evaluator's unknown-label semantics.
    #[inline]
    pub fn step(&self, state: MatchState, label: Option<LabelId>) -> MatchState {
        let consuming = match label {
            Some(l) => self.label_masks.get(l.index()).copied().unwrap_or_default(),
            None => 0,
        };
        // `Label(l)` positions advance by one; `//` positions self-loop.
        let out = ((state.0 & consuming) << 1) | (state.0 & self.any_mask);
        self.close(MatchState(out))
    }

    /// ε-closure: a live `//` position also reaches the position after it.
    /// ε-edges only ever point forward, so runs of consecutive `//` atoms
    /// converge in as many rounds as the longest run — one for typical
    /// paths.
    #[inline]
    fn close(&self, state: MatchState) -> MatchState {
        let mut mask = state.0;
        loop {
            let grown = mask | ((mask & self.any_mask) << 1);
            if grown == mask {
                return MatchState(mask);
            }
            mask = grown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::PathExpr;
    use xmlprop_xmltree::LabelUniverse;

    fn p(s: &str) -> PathExpr {
        s.parse().unwrap()
    }

    fn stream_matches(matcher: &StreamMatcher, word: &[LabelId]) -> bool {
        let mut state = matcher.start();
        for &l in word {
            state = matcher.step(state, Some(l));
        }
        matcher.accepts(state)
    }

    #[test]
    fn agrees_with_matches_word_exhaustively() {
        let exprs = [
            "ε", "a", "b", "a/b", "//", "//a", "a//", "//a//", "a//b", "//a/b", "b//a", "a//a",
            "//b//a", "a/b//a", "a/b/a", "//a//b//", "a/@x", "//@x",
        ];
        let mut u = LabelUniverse::new();
        let labels = [u.intern("a"), u.intern("b"), u.intern("@x")];
        for expr in exprs {
            let compiled = CompiledExpr::compile(&p(expr), &mut u);
            let matcher = StreamMatcher::new(&compiled).unwrap();
            // All words over {a, b, @x} up to length 4.
            let mut words: Vec<Vec<LabelId>> = vec![Vec::new()];
            let mut frontier = words.clone();
            for _ in 0..4 {
                let mut next = Vec::new();
                for w in &frontier {
                    for &l in &labels {
                        let mut w2 = w.clone();
                        w2.push(l);
                        next.push(w2);
                    }
                }
                words.extend(next.iter().cloned());
                frontier = next;
            }
            for word in &words {
                assert_eq!(
                    stream_matches(&matcher, word),
                    compiled.matches_word(word),
                    "{expr} vs {word:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_labels_only_pass_through_any_path() {
        let mut u = LabelUniverse::new();
        let a = CompiledExpr::compile(&p("a"), &mut u);
        let any = CompiledExpr::compile(&p("//"), &mut u);
        let any_a = CompiledExpr::compile(&p("//a"), &mut u);
        let label_a = u.lookup("a");

        let m = StreamMatcher::new(&a).unwrap();
        assert!(!m.accepts(m.step(m.start(), None)));
        assert_eq!(m.step(m.start(), None), MatchState(0), "no live position");

        let m = StreamMatcher::new(&any).unwrap();
        assert!(m.accepts(m.step(m.start(), None)));

        let m = StreamMatcher::new(&any_a).unwrap();
        let state = m.step(m.start(), None);
        assert!(!m.accepts(state), "unknown label is not `a`");
        assert!(m.accepts(m.step(state, label_a)), "`//` consumed it");
    }

    #[test]
    fn dead_states_stay_dead() {
        let mut u = LabelUniverse::new();
        let expr = CompiledExpr::compile(&p("a/b"), &mut u);
        let b = u.lookup("b");
        let m = StreamMatcher::new(&expr).unwrap();
        let dead = m.step(m.start(), b);
        assert_eq!(dead, MatchState(0));
        for label in [u.lookup("a"), b, None] {
            assert_eq!(m.step(dead, label), dead);
        }
    }

    #[test]
    fn paths_past_the_mask_are_refused_not_panicked_on() {
        let mut u = LabelUniverse::new();
        let path = |steps: usize| vec!["a"; steps].join("/");
        let fits = CompiledExpr::compile(&p(&path(MAX_STREAM_ATOMS)), &mut u);
        let m = StreamMatcher::new(&fits).unwrap();
        let a = u.lookup("a");
        let end = (0..MAX_STREAM_ATOMS).fold(m.start(), |s, _| m.step(s, a));
        assert!(m.accepts(end));
        let long = CompiledExpr::compile(&p(&path(130)), &mut u);
        let err = StreamMatcher::new(&long).unwrap_err();
        assert_eq!(err, PathTooLong { atoms: 130 });
        assert!(err.to_string().contains("at most 127"), "{err}");
    }

    #[test]
    fn epsilon_accepts_only_the_empty_word() {
        let mut u = LabelUniverse::new();
        let a = u.intern("a");
        let m = StreamMatcher::new(&CompiledExpr::epsilon()).unwrap();
        assert!(m.accepts(m.start()));
        assert!(!m.accepts(m.step(m.start(), Some(a))));
    }
}
