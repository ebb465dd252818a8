//! Concrete paths (sequences of labels).

use crate::PathExpr;
use std::fmt;

/// A concrete path: a (possibly empty) sequence of node labels, such as
/// `book/chapter/@number`.  Concrete paths are the *words* of the language
/// defined by a [`PathExpr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Path {
    labels: Vec<String>,
}

impl Path {
    /// The empty path.
    pub fn empty() -> Self {
        Path { labels: Vec::new() }
    }

    /// Builds a path from a sequence of labels.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Path {
            labels: labels.into_iter().map(Into::into).collect(),
        }
    }

    /// The labels of the path.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the path is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Appends a label, returning the longer path.
    pub fn child(&self, label: impl Into<String>) -> Path {
        let mut labels = self.labels.clone();
        labels.push(label.into());
        Path { labels }
    }

    /// Concatenates two concrete paths.
    pub fn concat(&self, other: &Path) -> Path {
        Path {
            labels: self
                .labels
                .iter()
                .cloned()
                .chain(other.labels.iter().cloned())
                .collect(),
        }
    }

    /// Membership `self ∈ expr`.
    pub fn matches(&self, expr: &PathExpr) -> bool {
        expr.matches(self)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            write!(f, "ε")
        } else {
            write!(f, "{}", self.labels.join("/"))
        }
    }
}

impl From<Vec<String>> for Path {
    fn from(labels: Vec<String>) -> Self {
        Path { labels }
    }
}

#[cfg(test)]
impl Path {
    /// Converts the concrete path into the (wildcard-free) path expression
    /// defining exactly this path.
    fn to_expr(&self) -> PathExpr {
        PathExpr::from_labels(self.labels.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let p = Path::from_labels(["book", "chapter", "@number"]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "book/chapter/@number");
        assert_eq!(Path::empty().to_string(), "ε");
        assert!(Path::empty().is_empty());
    }

    #[test]
    fn child_and_concat() {
        let p = Path::empty().child("book").child("title");
        assert_eq!(p, Path::from_labels(["book", "title"]));
        let q = Path::from_labels(["a"]).concat(&Path::from_labels(["b", "c"]));
        assert_eq!(q, Path::from_labels(["a", "b", "c"]));
    }

    #[test]
    fn to_expr_matches_itself() {
        let p = Path::from_labels(["book", "chapter"]);
        assert!(p.matches(&p.to_expr()));
        assert!(!Path::from_labels(["book"]).matches(&p.to_expr()));
    }

    #[test]
    fn membership_example_from_paper() {
        // Section 2: book/chapter ∈ //chapter — wait, the paper's example is
        // chapter/section ∈ //section and book/chapter ∈ //chapter.
        let rho = Path::from_labels(["book", "chapter"]);
        let anywhere_chapter: PathExpr = "//chapter".parse().unwrap();
        assert!(rho.matches(&anywhere_chapter));
        let only_chapter: PathExpr = "chapter".parse().unwrap();
        assert!(!rho.matches(&only_chapter));
    }
}
