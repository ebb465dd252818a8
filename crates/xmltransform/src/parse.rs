//! A concise textual syntax for transformations.
//!
//! ```text
//! rule chapter(inBook, number, name) {
//!     yb := xr//book;
//!     y1 := yb/@isbn;
//!     yc := yb/chapter;
//!     y2 := yc/@number;
//!     y3 := yc/name;
//!     inBook := value(y1);
//!     number := value(y2);
//!     name   := value(y3);
//! }
//! ```
//!
//! * `x := y/P` is a variable mapping (`y//P` and plain `x := y` — the empty
//!   path — are accepted too);
//! * `f := value(x)` is a field rule;
//! * `xr` denotes the root variable and must not be defined;
//! * `#` starts a line comment.

use crate::rule::{FieldRule, TableRule, Transformation, VarMapping};
use std::fmt;
use xmlprop_reldb::RelationSchema;

/// Error from parsing the textual transformation syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRuleError {
    /// Description of the problem.
    pub message: String,
}

impl ParseRuleError {
    fn new(message: impl Into<String>) -> Self {
        ParseRuleError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid transformation: {}", self.message)
    }
}

impl std::error::Error for ParseRuleError {}

/// Parses a whole transformation (a sequence of `rule NAME(fields) { … }`
/// blocks).
pub fn parse_transformation(text: &str) -> Result<Transformation, ParseRuleError> {
    // Strip comments.
    let cleaned: String = text
        .lines()
        .map(|l| match l.find('#') {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");

    let mut rules = Vec::new();
    let mut rest = cleaned.trim();
    while !rest.is_empty() {
        let Some(stripped) = rest.strip_prefix("rule") else {
            return Err(ParseRuleError::new(format!(
                "expected `rule`, found `{}`",
                rest.chars().take(20).collect::<String>()
            )));
        };
        let open_brace = stripped
            .find('{')
            .ok_or_else(|| ParseRuleError::new("missing `{` after rule header"))?;
        let header = stripped[..open_brace].trim();
        let close_brace = stripped[open_brace..]
            .find('}')
            .map(|i| i + open_brace)
            .ok_or_else(|| ParseRuleError::new("missing `}` closing rule body"))?;
        let body = &stripped[open_brace + 1..close_brace];
        let rule = parse_rule(header, body)?;
        // Relations are keyed by name downstream (shredded databases,
        // `rule_index`), so a second rule would silently shadow the first.
        let name = rule.schema().name();
        if rules.iter().any(|r: &TableRule| r.schema().name() == name) {
            return Err(ParseRuleError::new(format!(
                "relation `{name}` is defined by more than one rule"
            )));
        }
        rules.push(rule);
        rest = stripped[close_brace + 1..].trim();
    }
    if rules.is_empty() {
        return Err(ParseRuleError::new("no rules found"));
    }
    Ok(Transformation::new(rules))
}

/// Parses the header `name(f1, f2, …)` and the body statements of one rule.
fn parse_rule(header: &str, body: &str) -> Result<TableRule, ParseRuleError> {
    let open = header
        .find('(')
        .ok_or_else(|| ParseRuleError::new(format!("rule header `{header}` is missing `(`")))?;
    let close = header
        .rfind(')')
        .ok_or_else(|| ParseRuleError::new(format!("rule header `{header}` is missing `)`")))?;
    let name = header[..open].trim();
    if name.is_empty() {
        return Err(ParseRuleError::new("rule has no name"));
    }
    let fields: Vec<String> = header[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if fields.is_empty() {
        return Err(ParseRuleError::new(format!(
            "rule `{name}` declares no fields"
        )));
    }

    let mut mappings = Vec::new();
    let mut field_rules = Vec::new();
    for stmt in body.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let (lhs, rhs) = stmt
            .split_once(":=")
            .ok_or_else(|| ParseRuleError::new(format!("statement `{stmt}` is missing `:=`")))?;
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        if let Some(var_expr) = rhs.strip_prefix("value(") {
            let var = var_expr
                .strip_suffix(')')
                .ok_or_else(|| ParseRuleError::new(format!("unterminated value() in `{stmt}`")))?
                .trim();
            field_rules.push(FieldRule {
                field: lhs.to_string(),
                var: var.to_string(),
            });
        } else {
            let (parent, path) = split_parent_path(rhs);
            let path = path
                .parse()
                .map_err(|e| ParseRuleError::new(format!("in `{stmt}`: {e}")))?;
            mappings.push(VarMapping {
                var: lhs.to_string(),
                parent: parent.to_string(),
                path,
            });
        }
    }

    // Put field rules into schema order for a stable display.
    field_rules.sort_by_key(|fr| {
        fields
            .iter()
            .position(|f| f == &fr.field)
            .unwrap_or(usize::MAX)
    });

    TableRule::new(RelationSchema::new(name, fields), mappings, field_rules)
        .map_err(|e| ParseRuleError::new(format!("rule `{name}`: {e}")))
}

/// Splits `"yb/@isbn"` into `("yb", "@isbn")`, `"xr//book"` into
/// `("xr", "//book")` and a bare `"y"` into `("y", "")` (the empty path).
fn split_parent_path(rhs: &str) -> (&str, &str) {
    match rhs.find('/') {
        Some(i) => (&rhs[..i], &rhs[i..]),
        None => (rhs, ""),
    }
}

/// Parses a single rule given separately from its header, mostly useful in
/// tests and doc examples.
pub fn parse_single_rule(text: &str) -> Result<TableRule, ParseRuleError> {
    let t = parse_transformation(text)?;
    match t.rules().len() {
        1 => Ok(t.rules()[0].clone()),
        n => Err(ParseRuleError::new(format!(
            "expected exactly one rule, found {n}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::ROOT_VAR as R;

    #[test]
    fn parses_the_chapter_rule() {
        let rule = parse_single_rule(
            "rule chapter(inBook, number, name) {
                yb := xr//book;
                y1 := yb/@isbn;
                yc := yb/chapter;
                y2 := yc/@number;
                y3 := yc/name;
                inBook := value(y1);
                number := value(y2);
                name := value(y3);
            }",
        )
        .unwrap();
        assert_eq!(rule.schema().name(), "chapter");
        assert_eq!(rule.schema().arity(), 3);
        assert_eq!(rule.mappings().len(), 5);
        assert_eq!(rule.mapping_of("yb").unwrap().parent, R);
        assert_eq!(rule.mapping_of("yb").unwrap().path.to_string(), "//book");
        let y3 = rule.field_var("name").unwrap();
        assert_eq!(rule.table_tree().name(y3), "y3");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let t = parse_transformation(
            "# the book rule only\nrule book(isbn) {\n  xb := xr//book; # bind books\n\n  xi := xb/@isbn;\n  isbn := value(xi);\n}",
        )
        .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn repeated_relation_names_are_rejected() {
        let err = parse_transformation(
            "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }
             rule book(title) { xb := xr//book; xt := xb/title; title := value(xt); }",
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid transformation: relation `book` is defined by more than one rule"
        );
    }

    #[test]
    fn multiple_rules_parse_in_order() {
        let t = parse_transformation(
            "rule a(x) { v := xr//a; w := v/@id; x := value(w); }
             rule b(y) { v := xr//b; w := v/@id; y := value(w); }",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rules()[0].schema().name(), "a");
        assert_eq!(t.rules()[1].schema().name(), "b");
    }

    #[test]
    fn empty_path_mapping_is_the_identity() {
        let rule =
            parse_single_rule("rule r(v) { a := xr//item; b := a; c := b/@id; v := value(c); }")
                .unwrap();
        assert!(rule.mapping_of("b").unwrap().path.is_epsilon());
    }

    #[test]
    fn error_cases() {
        assert!(parse_transformation("").is_err());
        assert!(parse_transformation("not a rule").is_err());
        assert!(parse_transformation("rule r(a) { broken statement }").is_err());
        assert!(parse_transformation("rule r(a) { x := xr//a }").is_err()); // missing field rule
        assert!(parse_transformation("rule r() { x := xr//a; }").is_err()); // no fields
        assert!(parse_transformation("rule r(a) { a := value(unknown); }").is_err());
        // Definition 2.2 violations surface as parse errors with context.
        let err = parse_transformation("rule r(a) { x := xr//p; y := x//deep; a := value(y); }")
            .unwrap_err();
        assert!(err.to_string().contains("non-simple path"), "{err}");
    }

    #[test]
    fn display_of_parsed_rule_reparses_to_the_same_rule() {
        let original = parse_single_rule(
            "rule section(inChapt, number, name) {
                zc := xr//book/chapter;
                z1 := zc/@number;
                zs := zc/section;
                z2 := zs/@number;
                z3 := zs/name;
                inChapt := value(z1);
                number := value(z2);
                name := value(z3);
            }",
        )
        .unwrap();
        let text = original.to_string();
        let reparsed = parse_single_rule(&text).unwrap();
        assert_eq!(original, reparsed);
    }
}
