//! The report renderers shared by the CLI's one-shot commands and the
//! resident server's responses.
//!
//! Byte-for-byte equality between `xmlprop-cli validate doc.xml keys.txt`
//! and a `validate` request against a served bundle is **by construction**:
//! both call the functions in this module.  The property tests in
//! `tests/server_swap.rs` pin it end to end anyway.

use std::fmt::{Display, Write};
use xmlprop_core::{PropagationEngine, PropagationOutcome};
use xmlprop_pipeline::{CorpusBundle, Error, ErrorKind, RequestScratch};
use xmlprop_reldb::Fd;
use xmlprop_xmltransform::{TableRule, Transformation};
use xmlprop_xmltree::Document;

/// Renders the per-key validation report for one document: `[ok]   {key}`
/// or `[FAIL] {key}` with indented violations.  Returns the verdict (all
/// keys satisfied) and the report text.
pub fn validate_report(
    bundle: &CorpusBundle,
    doc: &Document,
    scratch: &mut RequestScratch,
) -> (bool, String) {
    let index = scratch.index_document(doc);
    let per_key = (0..bundle.sigma().len()).map(|k| bundle.keys().violations_of(k, doc, &index));
    render_validation(bundle, per_key)
}

/// Streaming twin of [`validate_report`]: drives the key checker straight
/// off raw XML text — no `Document`, no `DocIndex`, unless a key is too
/// long to stream — and renders the same bytes.  `origin` names the input
/// in parse diagnostics (the CLI passes the file path).
pub fn validate_report_streaming(
    bundle: &CorpusBundle,
    xml: &str,
    origin: &str,
) -> Result<(bool, String), Error> {
    let report = bundle
        .stream_check(xml)
        .map_err(|e| Error::parse(origin, e))?;
    Ok(render_validation(bundle, &report.per_key))
}

/// The report both validate renderers print: per key of Σ, in order,
/// `[ok]   {key}` or `[FAIL] {key}` with its violations indented below.
fn render_validation<V: Display>(
    bundle: &CorpusBundle,
    per_key: impl IntoIterator<Item = impl AsRef<[V]>>,
) -> (bool, String) {
    let mut out = String::new();
    let mut ok = true;
    for (key, broken) in bundle.sigma().iter().zip(per_key) {
        let broken = broken.as_ref();
        if broken.is_empty() {
            writeln!(out, "[ok]   {key}").expect("String write");
        } else {
            ok = false;
            writeln!(out, "[FAIL] {key}").expect("String write");
            for v in broken {
                writeln!(out, "         {v}").expect("String write");
            }
        }
    }
    (ok, out)
}

/// Renders the shred output for one document: the named relation only, or
/// every rule's relation in plan (name) order.  Returns the total tuple
/// count and the report text.
pub fn shred_report(
    bundle: &CorpusBundle,
    doc: &Document,
    scratch: &mut RequestScratch,
    relation: Option<&str>,
) -> Result<(usize, String), Error> {
    if let Some(rel) = relation {
        require_rule(bundle, rel)?;
    }
    let mut out = String::new();
    let mut tuples = 0;
    let wanted = |name: &str| relation.is_none_or(|rel| rel == name);
    for relation in bundle.shred(doc, scratch, wanted).relations() {
        tuples += relation.len();
        writeln!(out, "{relation}").expect("String write");
    }
    Ok((tuples, out))
}

/// Renders the propagated minimum cover of one relation (the CLI `cover`
/// format), or of every rule with `-- {relation}` section headers.
/// Returns the FD count and the report text.
pub fn cover_report(
    bundle: &CorpusBundle,
    relation: Option<&str>,
) -> Result<(usize, String), Error> {
    let mut out = String::new();
    let mut fds = 0;
    match relation {
        Some(rel) => {
            let rule = rule_position(bundle.transformation(), rel)?;
            fds += write_cover(&mut out, &bundle.covers()[rule].cover);
        }
        None => {
            for rule in bundle.covers() {
                writeln!(out, "-- {}", rule.relation).expect("String write");
                fds += write_cover(&mut out, &rule.cover);
            }
        }
    }
    Ok((fds, out))
}

fn write_cover(out: &mut String, cover: &[Fd]) -> usize {
    if cover.is_empty() {
        writeln!(out, "(no non-trivial dependencies are propagated)").expect("String write");
    }
    for fd in cover {
        writeln!(out, "{fd}").expect("String write");
    }
    cover.len()
}

/// Renders an already-computed minimum cover in the CLI `cover` format —
/// the building block `cover_report` sections are made of.
pub fn render_cover(cover: &[Fd]) -> String {
    let mut out = String::new();
    write_cover(&mut out, cover);
    out
}

/// Renders per-field propagation verdicts (the CLI `propagate` format).
/// Returns the overall verdict (every RHS field guaranteed) and the report
/// text.
pub fn propagate_report(outcomes: &[PropagationOutcome]) -> (bool, String) {
    let mut out = String::new();
    let mut all = true;
    for o in outcomes {
        if o.propagated {
            writeln!(
                out,
                "GUARANTEED: every field `{}` value is determined (keyed ancestor variable: {})",
                o.field,
                o.keyed_ancestor.as_deref().unwrap_or("-"),
            )
            .expect("String write");
        } else {
            all = false;
            writeln!(out, "NOT GUARANTEED for field `{}`:", o.field).expect("String write");
            if o.keyed_ancestor.is_none() {
                writeln!(
                    out,
                    "  - no ancestor of the field's variable is transitively keyed by the LHS"
                )
                .expect("String write");
            }
            if !o.unresolved_fields.is_empty() {
                let fields: Vec<&str> = o.unresolved_fields.iter().map(String::as_str).collect();
                writeln!(
                    out,
                    "  - LHS field(s) {} are not guaranteed non-null whenever `{}` is non-null",
                    fields.join(", "),
                    o.field
                )
                .expect("String write");
            }
        }
    }
    (all, out)
}

/// Runs one query against the shredded image of `doc` and renders the
/// result: a `plan:` line (scan/join strategy, dedup decision), the result
/// table, and a row-count trailer. Returns the row count and the text.
///
/// The catalog the planner optimizes against is the bundle's **propagated
/// covers** — the same [`CorpusBundle::covers`] the `cover` verb reports,
/// computed once per bundle — so a join equated on a propagated key
/// executes as a hash lookup. Only the relations the query mentions are
/// shredded.
pub fn query_report(
    bundle: &CorpusBundle,
    doc: &Document,
    scratch: &mut RequestScratch,
    query_text: &str,
) -> Result<(usize, String), Error> {
    let query = xmlprop_query::parse_query(query_text)?;
    let mut catalog = xmlprop_query::Catalog::new();
    for (engine, rule) in bundle.engines().iter().zip(bundle.covers()) {
        catalog.add_relation(engine.rule().schema().clone(), &rule.cover);
    }
    let plan = xmlprop_query::plan(&query, &catalog)?;
    let needed: std::collections::BTreeSet<&str> = std::iter::once(query.from.as_str())
        .chain(query.joins.iter().map(|j| j.relation.as_str()))
        .collect();
    let database = bundle.shred(doc, scratch, |name| needed.contains(name));
    let result = xmlprop_query::execute(&plan, &database)?;
    let rows = result.len();
    let mut out = String::new();
    writeln!(out, "plan: {}", plan.describe()).expect("String write");
    // A zero-attribute projection has no table to draw; the count line
    // alone is the well-formed rendering.
    if result.schema().arity() > 0 {
        out.push_str(&result.to_table_string());
    }
    writeln!(out, "({rows} {})", if rows == 1 { "row" } else { "rows" }).expect("String write");
    Ok((rows, out))
}

/// Parses an `X -> A` FD, with the CLI's exact diagnostic.
pub fn parse_fd(text: &str) -> Result<Fd, Error> {
    text.parse()
        .map_err(|e| Error::new(ErrorKind::Parse, format!("invalid FD `{text}`: {e}")))
}

/// The prepared engine for `relation`, or the shared "no rule for relation"
/// diagnostic listing the known rules.
pub fn require_rule<'b>(
    bundle: &'b CorpusBundle,
    relation: &str,
) -> Result<&'b PropagationEngine, Error> {
    Ok(&bundle.engines()[rule_position(bundle.transformation(), relation)?])
}

/// The rule-order position of `relation` in `t` (an index into both
/// [`CorpusBundle::engines`] and [`CorpusBundle::covers`] of a bundle
/// prepared from `t`), or the shared "no rule for relation" diagnostic
/// listing the known rules.
pub fn rule_position(t: &Transformation, relation: &str) -> Result<usize, Error> {
    let name = |rule: &TableRule| rule.schema().name().to_string();
    let rules = t.rules();
    rules
        .iter()
        .position(|rule| rule.schema().name() == relation)
        .ok_or_else(|| Error::unknown_relation(relation, rules.iter().map(name).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_pipeline::{parse_keys_text, parse_rules_text, PreparedState};

    const KEYS: &str = "K1: (ε, (//book, {@isbn}))\n";
    const RULES: &str = "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }\n";

    fn bundle() -> CorpusBundle {
        CorpusBundle::prepare(
            parse_keys_text(KEYS, "keys").unwrap(),
            parse_rules_text(RULES, "rules").unwrap(),
        )
    }

    #[test]
    fn validate_report_formats_ok_and_fail_lines() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        let good = Document::parse_str("<r><book isbn='1'/><book isbn='2'/></r>").unwrap();
        let (ok, text) = validate_report(&bundle, &good, &mut scratch);
        assert!(ok);
        assert!(text.starts_with("[ok]   "), "got: {text}");

        let bad = Document::parse_str("<r><book isbn='1'/><book isbn='1'/></r>").unwrap();
        let (ok, text) = validate_report(&bundle, &bad, &mut scratch);
        assert!(!ok);
        assert!(text.starts_with("[FAIL] "), "got: {text}");
        assert!(text.lines().count() > 1, "violations listed: {text}");
    }

    #[test]
    fn shred_report_counts_tuples_and_rejects_unknown_relations() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        let doc = Document::parse_str("<r><book isbn='1'/><book isbn='2'/></r>").unwrap();
        let (tuples, text) = shred_report(&bundle, &doc, &mut scratch, None).unwrap();
        assert_eq!(tuples, 2);
        assert!(text.contains("book"), "got: {text}");
        let (tuples_one, text_one) =
            shred_report(&bundle, &doc, &mut scratch, Some("book")).unwrap();
        assert_eq!(tuples_one, 2);
        assert_eq!(text, text_one, "single-rule bundle: both forms agree");

        let err = shred_report(&bundle, &doc, &mut scratch, Some("nope")).unwrap_err();
        assert!(err.to_string().contains("no rule for relation `nope`"));
        assert!(err.to_string().contains("book"), "known rules listed");
    }

    #[test]
    fn streaming_report_twins_render_identical_bytes() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        for xml in [
            "<r><book isbn='1'/><book isbn='2'/></r>",
            "<r><book isbn='1'/><book isbn='1'/></r>",
        ] {
            let doc = Document::parse_str(xml).unwrap();
            let (ok, dom) = validate_report(&bundle, &doc, &mut scratch);
            let (ok_s, streamed) = validate_report_streaming(&bundle, xml, "doc").unwrap();
            assert_eq!(ok_s, ok);
            assert_eq!(streamed, dom, "validate twins must render identically");
        }
        let err = validate_report_streaming(&bundle, "<r", "bad.xml").unwrap_err();
        assert!(err.to_string().starts_with("bad.xml: "), "got: {err}");
    }

    #[test]
    fn cover_report_all_rules_matches_single_rule_section() {
        let bundle = bundle();
        let (fds, one) = cover_report(&bundle, Some("book")).unwrap();
        let (fds_all, all) = cover_report(&bundle, None).unwrap();
        assert_eq!(fds, fds_all);
        assert_eq!(all, format!("-- book\n{one}"));
    }

    #[test]
    fn query_report_renders_plan_table_and_count() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        let doc = Document::parse_str("<r><book isbn='2'/><book isbn='1'/></r>").unwrap();
        let (rows, text) =
            query_report(&bundle, &doc, &mut scratch, "select isbn from book").unwrap();
        assert_eq!(rows, 2);
        assert!(
            text.starts_with("plan: scan book; project isbn"),
            "got: {text}"
        );
        assert!(text.contains("isbn"), "header present: {text}");
        assert!(text.ends_with("(2 rows)\n"), "got: {text}");

        // Zero-attribute projection: no table, just the count.
        let (rows, text) = query_report(&bundle, &doc, &mut scratch, "select from book").unwrap();
        assert_eq!(rows, 1);
        assert!(text.ends_with("(1 row)\n"), "got: {text}");
        assert_eq!(text.lines().count(), 2, "plan line + count only: {text}");

        // Errors reuse the shared table.
        let err = query_report(&bundle, &doc, &mut scratch, "select broken").unwrap_err();
        assert_eq!(err.wire_code(), "parse");
        let err = query_report(&bundle, &doc, &mut scratch, "select a from nosuch").unwrap_err();
        assert_eq!(err.wire_code(), "relation");
    }

    #[test]
    fn parse_fd_uses_the_cli_diagnostic() {
        let err = parse_fd("not an fd").unwrap_err();
        assert!(err.to_string().starts_with("invalid FD `not an fd`:"));
        assert!(parse_fd("isbn -> isbn").is_ok());
    }
}
