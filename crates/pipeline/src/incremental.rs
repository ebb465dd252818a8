//! Incremental revalidation: a mutable document kept consistent with its
//! prepared index, key validation and shredded database under edits.
//!
//! [`CorpusBundle::open_incremental`] pays the from-scratch cost once —
//! building the [`DocIndex`], the [`IncrementalValidator`] and the
//! [`IncrementalShredder`] — and every subsequent
//! [`CorpusBundle::apply_delta`] maintains all three in time proportional
//! to the edit's dirty region instead of the document:
//!
//! 1. [`Document::apply`] performs the structural edit;
//! 2. [`DocIndex::apply_delta`] renumbers only the affected subtree range;
//! 3. the validator re-checks only the key contexts on the dirty ancestor
//!    chain or new since the last edit;
//! 4. the shredder re-shreds only the tuple blocks whose anchors meet the
//!    chain, reporting net tuple-level [`RelationDelta`]s.
//!
//! The maintained state is bit-for-bit what re-running the whole pipeline
//! from scratch on the mutated document would produce — pinned by the
//! `incremental_equivalence` differential property tests.
//!
//! The module also hosts [`parse_edit_script`], the textual edit-script
//! format behind `xmlprop-cli mutate`:
//!
//! ```text
//! # comments and blank lines are skipped
//! settext n5 new text until end of line
//! remove n12
//! insert n3 0 <chapter number="9"><name>Nine</name></chapter>
//! insert n3 1 @isbn=123-456
//! insert n7 2 bare text until end of line
//! ```
//!
//! Nodes are named by their arena id as printed in violation reports
//! (`n5`); `insert` takes the parent node, the child position, and a
//! fragment — an XML element, `@name=value` attribute, or bare text.

use crate::bundle::CorpusBundle;
use crate::error::Error;
use xmlprop_reldb::Database;
use xmlprop_xmlkeys::{IncrementalValidator, Violation};
use xmlprop_xmlpath::LabelUniverse;
use xmlprop_xmltransform::{IncrementalShredder, RelationDelta};
use xmlprop_xmltree::{AppliedDelta, Delta, DeltaError, DocIndex, Document, Fragment, NodeId};

/// A document opened for incremental maintenance against a
/// [`CorpusBundle`]; see the module docs.
#[derive(Debug)]
pub struct IncrementalDocument {
    doc: Document,
    universe: LabelUniverse,
    index: DocIndex,
    validator: IncrementalValidator,
    shredder: IncrementalShredder,
}

/// What one applied edit did to the maintained state.
#[derive(Debug, Clone)]
pub struct EditReport {
    /// The normalized record of the edit.
    pub applied: AppliedDelta,
    /// Live nodes after the edit.
    pub nodes: usize,
    /// Total key violations after the edit.
    pub violations: usize,
    /// Tuple-level effect per relation the edit touched (empty when the
    /// shredded database is unchanged).
    pub relations: Vec<RelationDelta>,
}

impl CorpusBundle {
    /// Opens a document for incremental maintenance: builds its index,
    /// validation state and shredding state once, so that
    /// [`CorpusBundle::apply_delta`] can maintain them per edit.
    pub fn open_incremental(&self, doc: Document) -> IncrementalDocument {
        let mut universe = self.worker_universe();
        let index = DocIndex::build(&doc, &mut universe);
        let validator = IncrementalValidator::new(self.keys(), &doc, &index);
        let shredder = IncrementalShredder::new(self.plan(), &doc, &index);
        IncrementalDocument {
            doc,
            universe,
            index,
            validator,
            shredder,
        }
    }

    /// Applies one edit to an incrementally maintained document, patching
    /// the index, the validation state and the shredded database in place.
    /// On error the document and all maintained state are unchanged.
    pub fn apply_delta(
        &self,
        state: &mut IncrementalDocument,
        delta: &Delta,
    ) -> Result<EditReport, DeltaError> {
        let applied = state.doc.apply(delta)?;
        state
            .index
            .apply_delta(&state.doc, &applied, &mut state.universe);
        state
            .validator
            .apply(self.keys(), &state.doc, &state.index, &applied);
        let relations = state
            .shredder
            .apply(self.plan(), &state.doc, &state.index, &applied);
        Ok(EditReport {
            applied,
            nodes: state.doc.len(),
            violations: state.validator.violation_count(),
            relations,
        })
    }
}

impl IncrementalDocument {
    /// The current document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The maintained index (always current for the document).
    pub fn index(&self) -> &DocIndex {
        &self.index
    }

    /// All current key violations — bit-for-bit what a from-scratch
    /// validation of the current document reports.
    pub fn violations(&self) -> Vec<Violation> {
        self.validator.violations()
    }

    /// The number of current key violations.
    pub fn violation_count(&self) -> usize {
        self.validator.violation_count()
    }

    /// True if the current document satisfies Σ.
    pub fn satisfies(&self) -> bool {
        self.validator.satisfies()
    }

    /// The maintained shredded database — bit-for-bit what a from-scratch
    /// shred of the current document produces.
    pub fn database(&self, bundle: &CorpusBundle) -> Database {
        self.shredder.database(bundle.plan())
    }
}

/// Parses a textual edit script (see the module docs for the format) into
/// `(line number, delta)` pairs.  `origin` names the script in error
/// messages (`script.edits:3: …`); all failures are
/// [`ErrorKind::Parse`](crate::ErrorKind::Parse) and exit/wire-code like
/// every other parse error.
pub fn parse_edit_script(text: &str, origin: &str) -> Result<Vec<(usize, Delta)>, Error> {
    let mut edits = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| Error::parse(&format!("{origin}:{lineno}"), msg);
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        let delta = match verb {
            "settext" => {
                let (node, text) = match rest.split_once(char::is_whitespace) {
                    Some((n, t)) => (n, t.trim_start()),
                    None if !rest.is_empty() => (rest, ""),
                    None => return Err(at("settext expects `settext <node> <text>`".into())),
                };
                Delta::SetText {
                    node: parse_node(node).map_err(&at)?,
                    text: text.to_string(),
                }
            }
            "remove" => {
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(at("remove expects `remove <node>`".into()));
                }
                Delta::RemoveSubtree {
                    node: parse_node(rest).map_err(&at)?,
                }
            }
            "insert" => {
                let (node, rest) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| at("insert expects `insert <node> <pos> <fragment>`".into()))?;
                let (pos, fragment) = rest
                    .trim_start()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| at("insert expects `insert <node> <pos> <fragment>`".into()))?;
                let position: usize = pos
                    .parse()
                    .map_err(|_| at(format!("`{pos}` is not a child position")))?;
                Delta::InsertSubtree {
                    parent: parse_node(node).map_err(&at)?,
                    position,
                    fragment: parse_fragment(fragment.trim_start()).map_err(&at)?,
                }
            }
            other => {
                return Err(at(format!(
                    "unknown edit verb `{other}` (expected settext, remove or insert)"
                )))
            }
        };
        edits.push((lineno, delta));
    }
    Ok(edits)
}

/// Parses a node reference of the form `n<id>` (as nodes print).
fn parse_node(token: &str) -> Result<NodeId, String> {
    token
        .strip_prefix('n')
        .and_then(|digits| digits.parse::<usize>().ok())
        .map(NodeId::from_index)
        .ok_or_else(|| format!("`{token}` is not a node id (expected e.g. `n5`)"))
}

/// Parses an insert fragment: `<xml…>` element, `@name=value` attribute,
/// or bare text.
fn parse_fragment(text: &str) -> Result<Fragment, String> {
    if let Some(attr) = text.strip_prefix('@') {
        let (name, value) = attr.split_once('=').ok_or_else(|| {
            format!("`{text}` is not an attribute fragment (expected `@name=value`)")
        })?;
        if name.is_empty() {
            return Err("attribute fragment has an empty name".into());
        }
        return Ok(Fragment::Attribute {
            name: name.to_string(),
            value: value.to_string(),
        });
    }
    if text.starts_with('<') {
        let doc = Document::parse_str(text).map_err(|e| format!("fragment: {e}"))?;
        return Ok(Fragment::Element(doc));
    }
    Ok(Fragment::Text(text.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use crate::source::{parse_keys_text, parse_rules_text};

    fn bundle() -> CorpusBundle {
        CorpusBundle::prepare(
            parse_keys_text("K1: (ε, (//book, {@isbn}))", "keys").unwrap(),
            parse_rules_text(
                "rule book(isbn, title) {
                    xb := xr//book;
                    xi := xb/@isbn;
                    xt := xb/title;
                    isbn := value(xi);
                    title := value(xt);
                }",
                "rules",
            )
            .unwrap(),
        )
    }

    fn fresh_outcome(bundle: &CorpusBundle, doc: &Document) -> (Vec<Violation>, Database) {
        let mut scratch = crate::state::RequestScratch::for_bundle(bundle);
        let index = scratch.index_document(doc);
        (
            bundle.keys().violations(doc, &index),
            bundle.plan().shred_all(doc, &index),
        )
    }

    #[test]
    fn apply_delta_tracks_scratch_and_reports_tuple_deltas() {
        let bundle = bundle();
        let doc = Document::parse_str(
            r#"<db><book isbn="1"><title>A</title></book><book isbn="2"><title>B</title></book></db>"#,
        )
        .unwrap();
        let b0 = doc.children(doc.root()).next().unwrap();
        let isbn0 = doc.attribute_node(b0, "isbn").unwrap();
        let mut state = bundle.open_incremental(doc);

        // Collide the isbn values: one violation, one changed tuple.
        let report = bundle
            .apply_delta(
                &mut state,
                &Delta::SetText {
                    node: isbn0,
                    text: "2".into(),
                },
            )
            .unwrap();
        assert_eq!(report.violations, 1);
        assert_eq!(report.relations.len(), 1);
        assert_eq!(report.relations[0].relation(), "book");
        assert_eq!(report.relations[0].inserted().len(), 1);
        assert_eq!(report.relations[0].deleted().len(), 1);
        let (violations, db) = fresh_outcome(&bundle, state.document());
        assert_eq!(state.violations(), violations);
        assert_eq!(state.database(&bundle), db);

        // Remove the first book: violation gone, one tuple deleted.
        let report = bundle
            .apply_delta(&mut state, &Delta::RemoveSubtree { node: b0 })
            .unwrap();
        assert_eq!(report.violations, 0);
        assert!(state.satisfies());
        let (violations, db) = fresh_outcome(&bundle, state.document());
        assert_eq!(state.violations(), violations);
        assert_eq!(state.database(&bundle), db);
    }

    #[test]
    fn apply_delta_errors_leave_state_untouched() {
        let bundle = bundle();
        let doc =
            Document::parse_str(r#"<db><book isbn="1"><title>A</title></book></db>"#).unwrap();
        let mut state = bundle.open_incremental(doc);
        let before = state.document().clone();
        let err = bundle
            .apply_delta(
                &mut state,
                &Delta::RemoveSubtree {
                    node: NodeId::from_index(999),
                },
            )
            .unwrap_err();
        assert!(matches!(err, DeltaError::UnknownNode(_)));
        assert_eq!(state.document(), &before);
        assert_eq!(state.violation_count(), 0);
    }

    #[test]
    fn edit_scripts_parse_and_report_line_numbers() {
        let script = "\
# a comment
settext n5 hello world
remove n12

insert n3 0 <chapter number=\"9\"/>
insert n3 1 @isbn=123
insert n7 2 bare text
";
        let edits = parse_edit_script(script, "s.edits").unwrap();
        assert_eq!(edits.len(), 5);
        assert_eq!(edits[0].0, 2);
        assert!(matches!(
            &edits[0].1,
            Delta::SetText { text, .. } if text == "hello world"
        ));
        assert!(matches!(&edits[1].1, Delta::RemoveSubtree { .. }));
        assert!(matches!(
            &edits[2].1,
            Delta::InsertSubtree {
                position: 0,
                fragment: Fragment::Element(_),
                ..
            }
        ));
        assert!(matches!(
            &edits[3].1,
            Delta::InsertSubtree { fragment: Fragment::Attribute { name, value }, .. }
                if name == "isbn" && value == "123"
        ));
        assert!(matches!(
            &edits[4].1,
            Delta::InsertSubtree { fragment: Fragment::Text(t), .. } if t == "bare text"
        ));
    }

    #[test]
    fn malformed_edit_scripts_are_parse_errors_with_origin() {
        for (script, needle) in [
            ("frobnicate n1", "unknown edit verb"),
            ("settext", "settext expects"),
            ("remove", "remove expects"),
            ("remove n1 n2", "remove expects"),
            ("remove book", "not a node id"),
            ("settext x5 text", "not a node id"),
            ("insert n1", "insert expects"),
            ("insert n1 0", "insert expects"),
            ("insert n1 minusone <x/>", "not a child position"),
            ("insert n1 0 <unclosed", "fragment:"),
            ("insert n1 0 @=v", "empty name"),
            ("insert n1 0 @noequals", "not an attribute fragment"),
        ] {
            let err = parse_edit_script(script, "bad.edits").unwrap_err();
            assert!(
                err.kind() == ErrorKind::Parse,
                "{script}: wrong kind {err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.starts_with("bad.edits:1: "),
                "{script}: missing origin in {msg}"
            );
            assert!(msg.contains(needle), "{script}: {msg}");
            assert_eq!(err.exit_code(), 2);
            assert_eq!(err.wire_code(), "parse");
        }
    }
}
