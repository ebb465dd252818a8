//! The XML key type.

use std::fmt;
use std::str::FromStr;
use xmlprop_xmlpath::PathExpr;

/// An XML key `(Q, (Q', {@a1, …, @ak}))` of class `K^A` (attribute key
/// paths), optionally carrying a name such as `K1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct XmlKey {
    name: Option<String>,
    context: PathExpr,
    target: PathExpr,
    key_attrs: Vec<String>,
}

impl XmlKey {
    /// Creates a key from its three components.  Attribute names may be given
    /// with or without the leading `@`; they are normalized to carry it.
    pub fn new<I, S>(context: PathExpr, target: PathExpr, key_attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut attrs: Vec<String> = key_attrs
            .into_iter()
            .map(|a| {
                let a = a.into();
                if a.starts_with('@') {
                    a
                } else {
                    format!("@{a}")
                }
            })
            .collect();
        attrs.sort();
        attrs.dedup();
        XmlKey {
            name: None,
            context,
            target,
            key_attrs: attrs,
        }
    }

    /// Attaches a name (e.g. `"K2"`) to the key.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Parses the paper's syntax, e.g.
    /// `"K2: (//book, (chapter, {@number}))"` — the `K2:` prefix and the
    /// `@` on attribute names are optional, `{}` denotes an empty key-path
    /// set.
    pub fn parse(s: &str) -> Result<Self, ParseKeyError> {
        s.parse()
    }

    /// The key's name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The context path `Q`.
    pub fn context(&self) -> &PathExpr {
        &self.context
    }

    /// The target path `Q'`.
    pub fn target(&self) -> &PathExpr {
        &self.target
    }

    /// The attribute key paths `{@a1, …, @ak}`.
    ///
    /// **Invariant:** every entry carries the leading `@`, and the slice is
    /// sorted and duplicate-free.  [`XmlKey::new`] and the parser normalize
    /// once at construction time, so consumers (the implication index, the
    /// `exist()` analysis) compare attribute names directly instead of
    /// re-prefixing per probe.
    pub fn key_attrs(&self) -> &[String] {
        &self.key_attrs
    }

    /// True if the key is absolute (`Q = ε`).
    pub fn is_absolute(&self) -> bool {
        self.context.is_epsilon()
    }

    /// The concatenation `Q/Q'` — the position of the key's target nodes
    /// relative to the document root.
    pub fn absolute_target(&self) -> PathExpr {
        self.context.concat(&self.target)
    }

    /// The size `|φ|` of the key: number of path atoms plus key attributes
    /// (the measure used in the paper's complexity statements).
    pub fn size(&self) -> usize {
        self.context.len() + self.target.len() + self.key_attrs.len()
    }
}

impl fmt::Display for XmlKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            write!(f, "{name}: ")?;
        }
        write!(
            f,
            "({}, ({}, {{{}}}))",
            self.context,
            self.target,
            self.key_attrs.join(", ")
        )
    }
}

/// Error from parsing an [`XmlKey`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeyError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XML key: {}", self.message)
    }
}

impl std::error::Error for ParseKeyError {}

impl FromStr for XmlKey {
    type Err = ParseKeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| ParseKeyError {
            message: m.to_string(),
        };
        let s = s.trim();
        // Optional "NAME:" prefix (only if the colon comes before the first
        // parenthesis).
        let (name, rest) = match (s.find(':'), s.find('(')) {
            (Some(c), Some(p)) if c < p => (Some(s[..c].trim().to_string()), s[c + 1..].trim()),
            _ => (None, s),
        };
        let rest = rest.strip_prefix('(').ok_or_else(|| err("expected `(`"))?;
        let rest = rest
            .strip_suffix(')')
            .ok_or_else(|| err("expected trailing `)`"))?;
        // rest = "Q, (Q', {attrs})"
        let inner_open = rest
            .find('(')
            .ok_or_else(|| err("expected `(Q', {...})`"))?;
        let context_part = rest[..inner_open].trim().trim_end_matches(',').trim();
        let inner = rest[inner_open..].trim();
        let inner = inner
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| err("expected `(Q', {...})`"))?;
        let brace_open = inner
            .find('{')
            .ok_or_else(|| err("expected `{...}` key paths"))?;
        let brace_close = inner
            .rfind('}')
            .ok_or_else(|| err("expected closing `}`"))?;
        if brace_close < brace_open {
            return Err(err("mismatched braces"));
        }
        let target_part = inner[..brace_open].trim().trim_end_matches(',').trim();
        let attrs_part = inner[brace_open + 1..brace_close].trim();

        let context: PathExpr = context_part
            .parse()
            .map_err(|e| err(&format!("context path: {e}")))?;
        let target: PathExpr = target_part
            .parse()
            .map_err(|e| err(&format!("target path: {e}")))?;
        let attrs: Vec<String> = attrs_part
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        for a in &attrs {
            if a.contains('/') || a.contains(' ') {
                return Err(err(&format!(
                    "key path `{a}` is not a simple attribute; class K^A only allows @attributes"
                )));
            }
        }
        let mut key = XmlKey::new(context, target, attrs);
        if let Some(name) = name {
            key = key.named(name);
        }
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_the_paper_examples() {
        let k1 = XmlKey::parse("K1: (ε, (//book, {@isbn}))").unwrap();
        assert_eq!(k1.name(), Some("K1"));
        assert!(k1.is_absolute());
        assert_eq!(k1.target().to_string(), "//book");
        assert_eq!(k1.key_attrs(), ["@isbn"]);

        let k2 = XmlKey::parse("(//book, (chapter, {@number}))").unwrap();
        assert!(!k2.is_absolute());
        assert_eq!(k2.context().to_string(), "//book");
        assert_eq!(k2.absolute_target().to_string(), "//book/chapter");

        let k3 = XmlKey::parse("K3: (//book, (title, {}))").unwrap();
        assert!(k3.key_attrs().is_empty());

        let k7 = XmlKey::parse("K7: (//book, (author/contact, {}))").unwrap();
        assert_eq!(k7.target().to_string(), "author/contact");
    }

    #[test]
    fn attribute_names_are_normalized() {
        let a = XmlKey::new(
            "//book".parse().unwrap(),
            "chapter".parse().unwrap(),
            ["number"],
        );
        let b = XmlKey::new(
            "//book".parse().unwrap(),
            "chapter".parse().unwrap(),
            ["@number"],
        );
        assert_eq!(a, b);
        assert_eq!(a.key_attrs(), ["@number"]);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "K1: (ε, (//book, {@isbn}))",
            "(//book, (chapter, {@number}))",
            "(//book/chapter, (section, {@number, @part}))",
            "(ε, (//order//item, {}))",
        ] {
            let key = XmlKey::parse(s).unwrap();
            let reparsed = XmlKey::parse(&key.to_string()).unwrap();
            assert_eq!(key, reparsed, "roundtrip of {s}");
        }
    }

    #[test]
    fn size_counts_atoms_and_attrs() {
        let k = XmlKey::parse("(//book/chapter, (section, {@number}))").unwrap();
        // context: //, book, chapter (3 atoms); target: section (1); attrs: 1.
        assert_eq!(k.size(), 5);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(XmlKey::parse("no parens").is_err());
        assert!(XmlKey::parse("(a, b)").is_err());
        assert!(XmlKey::parse("(a, (b, {c/d}))").is_err()); // non-attribute key path
        assert!(XmlKey::parse("(a, (b, {x y}))").is_err());
    }

    #[test]
    fn parse_errors_cover_every_structural_failure() {
        for (input, fragment) in [
            ("a, (b, {x}))", "expected `(`"),
            ("(a, (b, {x})) extra", "expected trailing `)`"),
            ("(a, b, {x})", "expected `(Q', {...})`"),
            ("(a, (b, x))", "expected `{...}` key paths"),
            ("(a, (b, {x))", "expected closing `}`"),
            ("(a b, (c, {x}))", "context path"),
            ("(a, (b c, {x}))", "target path"),
            ("(a, (b, {x/y}))", "not a simple attribute"),
        ] {
            let err = XmlKey::parse(input).unwrap_err();
            assert!(
                err.message.contains(fragment),
                "parsing `{input}` should mention `{fragment}`, got: {err}"
            );
            assert!(err.to_string().starts_with("invalid XML key"));
        }
    }

    #[test]
    fn parse_tolerates_whitespace_and_optional_pieces() {
        // Name prefix only counts when the colon precedes the first paren.
        let k = XmlKey::parse("  K9 :  ( //a , ( b , { @x , y } ) )  ").unwrap();
        assert_eq!(k.name(), Some("K9"));
        assert_eq!(k.key_attrs(), ["@x", "@y"]);
        // A colon after the first paren is part of a label, not a name.
        let colon = XmlKey::parse("(a:b, (c, {x}))").unwrap();
        assert_eq!(colon.name(), None);
        assert_eq!(colon.context().to_string(), "a:b");
        let unnamed = XmlKey::parse("(a, (b, {}))").unwrap();
        assert_eq!(unnamed.name(), None);
        assert!(unnamed.key_attrs().is_empty());
    }

    #[test]
    fn duplicate_attrs_are_deduplicated() {
        let k = XmlKey::parse("(a, (b, {@x, @x, x}))").unwrap();
        assert_eq!(k.key_attrs(), ["@x"]);
    }
}
