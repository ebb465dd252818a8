//! Field values, including SQL-style nulls.

use std::fmt;
use std::sync::Arc;

/// A relational field value.
///
/// The paper's transformation produces string values (the `value()`
/// serialization of XML nodes) and `null` for missing branches; numbers are
/// kept as their textual form.  Comparisons involving [`Value::Null`] follow
/// SQL intuition: `null` never equals anything, including another `null`
/// (use [`Value::is_null`] to test for nulls explicitly).  `Eq`/`Ord` are
/// still implemented — treating nulls as a distinct smallest value — so that
/// rows can live in ordered collections; use [`Value::sql_eq`] where the
/// paper's semantics of comparisons is required.
///
/// The split of duties is deliberate: *duplicate elimination* (SQL
/// `DISTINCT`, the `==` and hash of a [`Row`](crate::Row)) is
/// structural and collapses nulls, exactly as SQL's `DISTINCT` does, while
/// *key and join comparisons* must go through [`Value::sql_eq`] (or
/// [`Row::sql_eq`](crate::Row::sql_eq)) so that a null-bearing row never
/// matches another row and never counts as a key violation.
///
/// Text is stored as a shared `Arc<str>`, so one string can back many
/// relations: a shredder serializes each distinct value of a document
/// once and hands the same `Arc` to every relation that names it.  Inside
/// a [`Relation`](crate::Relation) a value is stored once in the
/// relation's dictionary and its cells are `u32` codes, so the Cartesian
/// product of Definition 2.2, which repeats each upper-level value in
/// every row below it, copies codes, never values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The null value (missing data).
    #[default]
    Null,
    /// A text value (a shared string; see the type docs).
    Text(Arc<str>),
}

impl Value {
    /// Builds a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into().into())
    }

    /// True if the value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The text content, if the value is not null.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Null => None,
            Value::Text(s) => Some(s.as_ref()),
        }
    }

    /// SQL-style equality: comparisons with null are not true.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s.into())
    }
}

impl From<Option<String>> for Value {
    fn from(s: Option<String>) -> Self {
        match s {
            Some(s) => Value::Text(s.into()),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handling() {
        assert!(Value::Null.is_null());
        assert!(!Value::text("x").is_null());
        assert_eq!(Value::Null.as_text(), None);
        assert_eq!(Value::text("x").as_text(), Some("x"));
    }

    #[test]
    fn sql_equality_ignores_nulls() {
        assert!(Value::text("a").sql_eq(&Value::text("a")));
        assert!(!Value::text("a").sql_eq(&Value::text("b")));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::text("a")));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from("a"), Value::text("a"));
        assert_eq!(Value::from(Some("a".to_string())), Value::text("a"));
        assert_eq!(Value::from(None::<String>), Value::Null);
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::text("xyz").to_string(), "xyz");
    }
}
