//! Path expressions: `ε | l | P/P | P//P`.

use std::fmt;
use std::str::FromStr;

/// One atom of a path expression.
///
/// A [`PathExpr`] is a sequence of atoms; `P//Q` is represented as the atoms
/// of `P`, followed by [`Atom::AnyPath`], followed by the atoms of `Q`.
/// Consecutive `AnyPath` atoms are collapsed during normalization because
/// `//` `//` defines the same set of paths as a single `//`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    /// A node label (element tag such as `book`, or attribute name such as
    /// `@isbn`).
    Label(String),
    /// The `//` wildcard: any path, of any length (including the empty path).
    AnyPath,
}

/// A path expression in the language `P ::= ε | l | P/P | P//P`.
///
/// The expression is kept in a normalized form: consecutive `//` atoms are
/// merged.  Two expressions that are syntactically different but define the
/// same normalized atom sequence compare equal; expressions that define the
/// same *language* through different atom sequences (e.g. `a//` vs `a///`)
/// are normalized to the same value, but semantically equivalent expressions
/// with different structure (there are none in this fragment beyond `//`
/// collapsing) would not.  Use [`PathExpr::equivalent`] for language
/// equivalence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PathExpr {
    atoms: Vec<Atom>,
}

impl PathExpr {
    /// The empty path `ε`.
    pub fn epsilon() -> Self {
        PathExpr { atoms: Vec::new() }
    }

    /// A single-label path.
    pub fn label(l: impl Into<String>) -> Self {
        PathExpr {
            atoms: vec![Atom::Label(l.into())],
        }
    }

    /// The bare `//` expression (any path).
    pub fn any() -> Self {
        PathExpr {
            atoms: vec![Atom::AnyPath],
        }
    }

    /// Builds an expression from a sequence of atoms, normalizing `//` runs.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut out: Vec<Atom> = Vec::new();
        for a in atoms {
            if a == Atom::AnyPath && out.last() == Some(&Atom::AnyPath) {
                continue;
            }
            out.push(a);
        }
        PathExpr { atoms: out }
    }

    /// Builds a `//`-free expression from a sequence of labels.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PathExpr {
            atoms: labels.into_iter().map(|l| Atom::Label(l.into())).collect(),
        }
    }

    /// The atoms of this expression, in order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// True if this is the empty path `ε`.
    pub fn is_epsilon(&self) -> bool {
        self.atoms.is_empty()
    }

    /// True if the expression contains at least one `//`, so it is not a
    /// *simple* path in the paper's terminology (Definition 2.2 requires
    /// variable-mapping paths to be simple unless they start from the root
    /// variable).
    pub fn has_wildcard(&self) -> bool {
        self.atoms.contains(&Atom::AnyPath)
    }

    /// The number of atoms (labels plus wildcards); used as the size measure
    /// `|P|` in complexity statements.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the expression has no atoms (i.e. it is `ε`).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Concatenation `self / other`.
    pub fn concat(&self, other: &PathExpr) -> PathExpr {
        PathExpr::from_atoms(
            self.atoms
                .iter()
                .cloned()
                .chain(other.atoms.iter().cloned()),
        )
    }

    /// Appends a single child step.
    pub fn child(&self, label: impl Into<String>) -> PathExpr {
        self.concat(&PathExpr::label(label))
    }

    /// Appends a `//` step followed by a label (`self//label`).
    pub fn descendant(&self, label: impl Into<String>) -> PathExpr {
        self.concat(&PathExpr::any())
            .concat(&PathExpr::label(label))
    }

    /// All ways of writing `self` as a concatenation `A/B` of two path
    /// expressions.  This is exactly what the *target-to-context* rule for
    /// XML keys quantifies over: from a key `(Q, (A/B, S))` one may derive
    /// `(Q/A, (B, S))`.
    ///
    /// Splits are taken at every atom boundary; in addition, a `//` atom may
    /// be shared by both sides (because `A// / //B ≡ A//B`).  The trivial
    /// splits `(ε, self)` and `(self, ε)` are included.
    pub fn splits(&self) -> Vec<(PathExpr, PathExpr)> {
        let n = self.atoms.len();
        let mut out = Vec::with_capacity(n + 2);
        for i in 0..=n {
            out.push((
                PathExpr::from_atoms(self.atoms[..i].iter().cloned()),
                PathExpr::from_atoms(self.atoms[i..].iter().cloned()),
            ));
        }
        for (i, atom) in self.atoms.iter().enumerate() {
            if *atom == Atom::AnyPath {
                out.push((
                    PathExpr::from_atoms(self.atoms[..=i].iter().cloned()),
                    PathExpr::from_atoms(self.atoms[i..].iter().cloned()),
                ));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Language containment `self ⊑ other`: every concrete path defined by
    /// `self` is also defined by `other` (regular-language containment
    /// over the path alphabet, decided without automata construction).
    pub fn contained_in(&self, other: &PathExpr) -> bool {
        crate::containment::contained_in(self, other)
    }

    /// Language equivalence (containment in both directions).
    pub fn equivalent(&self, other: &PathExpr) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }

    /// Membership `ρ ∈ self` for a concrete path.
    pub fn matches(&self, path: &crate::Path) -> bool {
        crate::containment::word_matches(path.labels(), self)
    }
}

/// Error produced when parsing a path expression from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path expression: {}", self.message)
    }
}

impl std::error::Error for ParsePathError {}

impl FromStr for PathExpr {
    type Err = ParsePathError;

    /// Parses expressions in the syntax used throughout the paper:
    ///
    /// * `""`, `"ε"`, `"."` — the empty path;
    /// * `"//book"` — a leading `//`;
    /// * `"author/contact"`, `"//book/chapter/@number"` — `/`-separated
    ///   steps, `//` for descendant-or-self;
    /// * a single leading `/` (as in absolute XPath) is accepted and ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "ε" || s == "." {
            return Ok(PathExpr::epsilon());
        }
        let mut atoms = Vec::new();
        let bytes = s.as_bytes();
        let mut i = 0usize;
        // A single leading '/' that is not part of '//' marks an absolute
        // path; it carries no atom.
        if bytes[0] == b'/' && (bytes.len() < 2 || bytes[1] != b'/') {
            i = 1;
        }
        while i < bytes.len() {
            if bytes[i] == b'/' {
                if i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    atoms.push(Atom::AnyPath);
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            let start = i;
            while i < bytes.len() && bytes[i] != b'/' {
                i += 1;
            }
            let label = &s[start..i];
            if label.chars().any(char::is_whitespace) {
                return Err(ParsePathError {
                    message: format!("label `{label}` contains whitespace"),
                });
            }
            atoms.push(Atom::Label(label.to_string()));
        }
        Ok(PathExpr::from_atoms(atoms))
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "ε");
        }
        let mut prev_was_label = false;
        for atom in &self.atoms {
            match atom {
                Atom::AnyPath => {
                    write!(f, "//")?;
                    prev_was_label = false;
                }
                Atom::Label(l) => {
                    if prev_was_label {
                        write!(f, "/")?;
                    }
                    write!(f, "{l}")?;
                    prev_was_label = true;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathExpr {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "ε",
            "//book",
            "book/chapter",
            "//book/chapter/@number",
            "a//b//c",
            "//",
        ] {
            let expr = p(s);
            assert_eq!(expr.to_string(), s, "display of parse of {s}");
            assert_eq!(p(&expr.to_string()), expr);
        }
    }

    #[test]
    fn parse_variants_of_epsilon() {
        assert!(p("").is_epsilon());
        assert!(p("ε").is_epsilon());
        assert!(p(".").is_epsilon());
        assert!(p("  ").is_epsilon());
    }

    #[test]
    fn leading_single_slash_is_ignored() {
        assert_eq!(p("/book/title"), p("book/title"));
    }

    #[test]
    fn consecutive_wildcards_collapse() {
        assert_eq!(p("a////b"), p("a//b"));
        assert_eq!(PathExpr::any().concat(&PathExpr::any()), PathExpr::any());
    }

    #[test]
    fn rejects_whitespace_in_labels() {
        assert!("a b/c".parse::<PathExpr>().is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_label() {
        let err = "x/a b".parse::<PathExpr>().unwrap_err();
        assert!(err.message.contains("a b"), "unhelpful message: {err}");
        assert!(err.to_string().contains("invalid path expression"));
        // Interior whitespace anywhere in a label is rejected; surrounding
        // whitespace on the whole expression is trimmed and fine.
        assert!("a\tb".parse::<PathExpr>().is_err());
        assert!("  a/b  ".parse::<PathExpr>().is_ok());
    }

    #[test]
    fn parse_edge_cases_of_slashes() {
        // Trailing and repeated separators normalize rather than error.
        assert_eq!(p("a/"), p("a"));
        assert_eq!(p("a//"), PathExpr::label("a").concat(&PathExpr::any()));
        assert_eq!(p("///a"), p("//a")); // absolute marker + wildcard
        assert_eq!(p("////"), p("//"));
        assert_eq!(p("/"), PathExpr::epsilon());
    }

    #[test]
    fn simple_and_wildcard_predicates() {
        assert!(!p("book/chapter").has_wildcard());
        assert!(p("//book").has_wildcard());
        assert!(p("book//chapter").has_wildcard());
        assert!(!p("ε").has_wildcard());
    }

    #[test]
    fn concat_and_builders() {
        let q = PathExpr::epsilon()
            .descendant("book")
            .child("chapter")
            .child("@number");
        assert_eq!(q, p("//book/chapter/@number"));
        assert_eq!(p("a/b").concat(&p("c")), p("a/b/c"));
        assert_eq!(p("a//").concat(&p("//b")), p("a//b"));
        assert_eq!(p("a").concat(&PathExpr::epsilon()), p("a"));
    }

    #[test]
    fn splits_cover_all_decompositions() {
        let e = p("a//b");
        let splits = e.splits();
        // Expected decompositions of a//b into two concatenated expressions.
        let expect = [
            ("ε", "a//b"),
            ("a", "//b"),
            ("a//", "b"),
            ("a//b", "ε"),
            ("a//", "//b"), // wildcard shared by both sides
        ];
        for (l, r) in expect {
            assert!(
                splits.contains(&(p(l), p(r))),
                "missing split ({l}, {r}) in {splits:?}"
            );
        }
        // Every split must re-concatenate to the original expression.
        for (l, r) in &splits {
            assert_eq!(l.concat(r), e);
        }
    }

    #[test]
    fn splits_of_epsilon() {
        assert_eq!(
            PathExpr::epsilon().splits(),
            vec![(PathExpr::epsilon(), PathExpr::epsilon())]
        );
    }

    #[test]
    fn len_counts_atoms() {
        assert_eq!(p("ε").len(), 0);
        assert_eq!(p("//book/chapter").len(), 3);
        assert!(p("ε").is_empty());
    }
}
