//! Functional dependencies.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// A functional dependency `X → Y` over a set of attribute names.
///
/// Both sides are attribute sets; an empty right-hand side is allowed (it is
/// trivially satisfied) but an empty left-hand side is meaningful too (it
/// says `Y` is constant).  The paper works mostly with single-attribute
/// right-hand sides.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd {
    lhs: BTreeSet<String>,
    rhs: BTreeSet<String>,
}

impl Fd {
    /// Creates the FD `lhs → rhs`.
    pub fn new(lhs: BTreeSet<String>, rhs: BTreeSet<String>) -> Self {
        Fd { lhs, rhs }
    }

    /// Creates `X → A` with a single right-hand attribute.
    pub fn to_attr<I, S>(lhs: I, rhs: impl Into<String>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Fd {
            lhs: lhs.into_iter().map(Into::into).collect(),
            rhs: std::iter::once(rhs.into()).collect(),
        }
    }

    /// Parses `"a, b -> c"` (also accepts `→`).
    pub fn parse(s: &str) -> Result<Self, ParseFdError> {
        s.parse()
    }

    /// The left-hand side `X`.
    pub fn lhs(&self) -> &BTreeSet<String> {
        &self.lhs
    }

    /// The right-hand side `Y`.
    pub fn rhs(&self) -> &BTreeSet<String> {
        &self.rhs
    }

    /// All attributes mentioned by the FD.
    pub fn attributes(&self) -> BTreeSet<String> {
        self.lhs.union(&self.rhs).cloned().collect()
    }

    /// True if the FD is trivial (`Y ⊆ X`).
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset(&self.lhs)
    }

    /// True if the right-hand side has exactly one attribute.
    #[cfg(test)]
    pub(crate) fn is_singleton_rhs(&self) -> bool {
        self.rhs.len() == 1
    }

    /// Splits `X → {A1, …, An}` into `n` FDs with singleton right-hand sides.
    #[cfg(test)]
    pub(crate) fn split_rhs(&self) -> Vec<Fd> {
        self.rhs
            .iter()
            .map(|a| Fd {
                lhs: self.lhs.clone(),
                rhs: std::iter::once(a.clone()).collect(),
            })
            .collect()
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<&str> = self.lhs.iter().map(String::as_str).collect();
        let rhs: Vec<&str> = self.rhs.iter().map(String::as_str).collect();
        write!(f, "{} -> {}", lhs.join(", "), rhs.join(", "))
    }
}

/// Error from parsing an FD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFdError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseFdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid functional dependency: {}", self.message)
    }
}

impl std::error::Error for ParseFdError {}

impl FromStr for Fd {
    type Err = ParseFdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.replace('→', "->");
        let mut parts = normalized.split("->");
        let lhs = parts.next().ok_or_else(|| ParseFdError {
            message: "missing `->`".into(),
        })?;
        let rhs = parts.next().ok_or_else(|| ParseFdError {
            message: "missing `->`".into(),
        })?;
        if parts.next().is_some() {
            return Err(ParseFdError {
                message: "more than one `->`".into(),
            });
        }
        let split = |side: &str| -> BTreeSet<String> {
            side.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(str::to_string)
                .collect()
        };
        let rhs_set = split(rhs);
        if rhs_set.is_empty() {
            return Err(ParseFdError {
                message: "empty right-hand side".into(),
            });
        }
        Ok(Fd {
            lhs: split(lhs),
            rhs: rhs_set,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn parse_and_display() {
        let fd = Fd::parse("isbn, chapNum -> chapName").unwrap();
        assert_eq!(fd.lhs(), &attrs(["isbn", "chapNum"]));
        assert_eq!(fd.rhs(), &attrs(["chapName"]));
        assert_eq!(fd.to_string(), "chapNum, isbn -> chapName");
        assert_eq!(Fd::parse("a → b").unwrap(), Fd::parse("a -> b").unwrap());
    }

    #[test]
    fn parse_errors() {
        assert!(Fd::parse("no arrow").is_err());
        assert!(Fd::parse("a -> b -> c").is_err());
        assert!(Fd::parse("a -> ").is_err());
    }

    #[test]
    fn empty_lhs_is_allowed() {
        let fd = Fd::parse(" -> a").unwrap();
        assert!(fd.lhs().is_empty());
        assert!(!fd.is_trivial());
    }

    #[test]
    fn triviality_and_split() {
        assert!(Fd::parse("a, b -> a").unwrap().is_trivial());
        assert!(!Fd::parse("a -> b").unwrap().is_trivial());
        let fd = Fd::parse("a -> b, c").unwrap();
        assert!(!fd.is_singleton_rhs());
        let split = fd.split_rhs();
        assert_eq!(split.len(), 2);
        assert!(split.iter().all(Fd::is_singleton_rhs));
        assert_eq!(fd.attributes(), attrs(["a", "b", "c"]));
    }

    #[test]
    fn to_attr_matches_parse() {
        let fd = Fd::to_attr(["a", "b"], "c");
        assert_eq!(fd, Fd::parse("a, b -> c").unwrap());
    }

    #[test]
    fn parse_collapses_duplicate_attributes() {
        // Sides are sets: repeating an attribute changes nothing.
        let fd = Fd::parse("a, a, b -> c, c").unwrap();
        assert_eq!(fd.lhs(), &attrs(["a", "b"]));
        assert_eq!(fd.rhs(), &attrs(["c"]));
        assert_eq!(fd, Fd::parse("a, b -> c").unwrap());
    }

    #[test]
    fn parse_unicode_arrow_matches_ascii() {
        for (unicode, ascii) in [
            ("a → b", "a -> b"),
            ("a, b → c", "a, b -> c"),
            (" → k", " -> k"),
        ] {
            assert_eq!(Fd::parse(unicode).unwrap(), Fd::parse(ascii).unwrap());
        }
        // A mixed arrow soup still has more than one separator.
        assert!(Fd::parse("a → b -> c").is_err());
    }

    #[test]
    fn parse_trims_surrounding_whitespace() {
        let fd = Fd::parse("  a ,\tb  ->\t c  ").unwrap();
        assert_eq!(fd.lhs(), &attrs(["a", "b"]));
        assert_eq!(fd.rhs(), &attrs(["c"]));
        // Stray empty items between commas are dropped, not kept as "".
        let fd = Fd::parse("a, , b -> c").unwrap();
        assert_eq!(fd.lhs(), &attrs(["a", "b"]));
    }

    #[test]
    fn parse_empty_sides() {
        // Empty LHS is meaningful (a constant field)…
        let constant = Fd::parse("-> a").unwrap();
        assert!(constant.lhs().is_empty());
        assert_eq!(constant.rhs(), &attrs(["a"]));
        // …but an empty RHS (or one that trims to empty) is rejected.
        assert!(Fd::parse("a ->").is_err());
        assert!(Fd::parse("a -> ,").is_err());
        assert!(Fd::parse("a -> , ,").is_err());
        let err = Fd::parse("a ->").unwrap_err();
        assert!(err.to_string().contains("empty right-hand side"));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in [
            "a -> b",
            "a, b -> c",
            "chapNum, isbn -> chapName",
            "-> constant",
            "x -> x, y",
        ] {
            let fd = Fd::parse(text).unwrap();
            let reparsed = Fd::parse(&fd.to_string()).unwrap();
            assert_eq!(fd, reparsed, "round-trip failed for {text}");
        }
    }
}
