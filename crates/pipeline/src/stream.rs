//! The text entry points of a prepared bundle, and streaming key
//! validation.
//!
//! Streaming earns its place in one job only: key validation, which needs
//! no tree.  A validate-only pass feeds the text's parse events straight to
//! a [`StreamKeyChecker`], with retained state proportional to document
//! depth plus open key contexts, never to the node count.  Shredding is
//! defined over the whole tree, so every entry point that shreds parses the
//! text into a [`Document`] and runs the prepared plans on it, like
//! [`CorpusBundle::process`].
//!
//! * [`CorpusBundle::stream_text`] — the corpus outcome for raw XML text:
//!   one key-checker pass when only `validate` is on, otherwise parse plus
//!   [`CorpusBundle::process`];
//! * [`CorpusBundle::stream_check`] — the per-key violation report the
//!   renderers need;
//! * [`CorpusBundle::stream_shred`] — parse plus the named plan or all of
//!   them.
//!
//! Outcomes are bit-for-bit the DOM path's (`database`, `violations`,
//! `nodes`, `tuples`).  Node-id-carrying violations match because the
//! streaming checker numbers nodes in document pre-order, which is exactly
//! the arena order of parser-built documents.  A key whose path is too long
//! to stream ([`xmlprop_xmlpath::PathTooLong`]) is validated on the parsed
//! tree instead, with the same result.

use crate::bundle::CorpusBundle;
use crate::run::{CorpusOptions, DocOutcome};
use crate::state::PreparedState;
use xmlprop_reldb::Database;
use xmlprop_xmlkeys::{StreamCheckReport, StreamKeyChecker};
use xmlprop_xmltree::{Document, ParseError, StreamEvent, StreamParser};

impl CorpusBundle {
    /// Processes raw XML text under `options`.  With only `validate` on,
    /// the text streams through the key checker in one parser pass — no
    /// `Document`, no `DocIndex` — and `peak_open_bindings` is the
    /// checker's open-context peak.  Otherwise the text is parsed once and
    /// handed to [`CorpusBundle::process`] (`peak_open_bindings` 0).
    ///
    /// The outcome is bit-for-bit what parsing the text and running
    /// [`CorpusBundle::process`] would produce.
    pub fn stream_text(
        &self,
        xml: &str,
        options: &CorpusOptions,
    ) -> Result<DocOutcome, ParseError> {
        if options.validate && !options.shred {
            if let Ok(checker) = StreamKeyChecker::new(self.keys()) {
                let report = self.feed(checker, xml)?;
                return Ok(DocOutcome {
                    database: Database::new(),
                    violations: report.all_violations(),
                    nodes: report.nodes,
                    tuples: 0,
                    peak_open_bindings: report.peak_open_contexts,
                });
            }
        }
        let doc = Document::parse_str(xml)?;
        Ok(self.process(&doc, &mut self.scratch(), options))
    }

    /// Checks raw XML text against Σ, returning the **per-key** violation
    /// report the renderers need (Σ order, grouped by key): one streaming
    /// pass, or the tree validator when a key is too long to stream.
    pub fn stream_check(&self, xml: &str) -> Result<StreamCheckReport, ParseError> {
        if let Ok(checker) = StreamKeyChecker::new(self.keys()) {
            return self.feed(checker, xml);
        }
        let doc = Document::parse_str(xml)?;
        let index = self.scratch().index_document(&doc);
        Ok(StreamCheckReport {
            per_key: (0..self.keys().len())
                .map(|k| self.keys().violations_of(k, &doc, &index))
                .collect(),
            nodes: doc.len(),
            peak_open_contexts: 0,
        })
    }

    /// Parses raw XML text and shreds it through the plan populating
    /// `relation` (silently none when the name is unknown; callers validate
    /// names first for the shared diagnostic), or through every plan.
    pub fn stream_shred(&self, xml: &str, relation: Option<&str>) -> Result<Database, ParseError> {
        let doc = Document::parse_str(xml)?;
        Ok(self.shred(&doc, &mut self.scratch(), relation))
    }

    /// The one parser pass: feeds every event of `xml` to `checker`.
    fn feed(
        &self,
        mut checker: StreamKeyChecker<'_>,
        xml: &str,
    ) -> Result<StreamCheckReport, ParseError> {
        let mut parser = StreamParser::with_universe(xml, self.universe());
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::StartElement { label, .. } => checker.start_element(label),
                StreamEvent::Attribute { label, value, .. } => checker.attribute(label, &value),
                StreamEvent::Text { .. } => checker.text(),
                StreamEvent::EndElement => checker.end_element(),
            }
        }
        Ok(checker.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Jobs;
    use crate::source::{parse_keys_text, parse_rules_text};
    use xmlprop_xmltree::to_xml;

    const KEYS: &str = "K1: (ε, (//book, {@isbn}))\nK2: (//book, (chapter, {@number}))\n";
    const RULES: &str = "rule book(isbn, chapter) {
        xb := xr//book;
        xi := xb/@isbn;
        xc := xb/chapter;
        xn := xc/@number;
        isbn := value(xi);
        chapter := value(xn);
    }\n";

    fn bundle() -> CorpusBundle {
        CorpusBundle::prepare(
            parse_keys_text(KEYS, "keys").unwrap(),
            parse_rules_text(RULES, "rules").unwrap(),
        )
    }

    fn docs() -> Vec<Document> {
        [
            "<r><book isbn='1'><chapter number='1'/><chapter number='2'/></book></r>",
            "<r><book isbn='dup'/><book isbn='dup'/></r>",
            "<r><book isbn='x'><chapter number='1'/><chapter number='1'/></book>\
             <book isbn='y'/></r>",
            "<r><nothing/></r>",
        ]
        .iter()
        .map(|xml| Document::parse_str(xml).unwrap())
        .collect()
    }

    fn validate_only() -> CorpusOptions {
        CorpusOptions {
            stream: true,
            shred: false,
            ..CorpusOptions::default()
        }
    }

    /// Field-by-field comparison, the streaming-only statistic aside.
    fn assert_same_results(streamed: &DocOutcome, dom: &DocOutcome) {
        assert_eq!(streamed.database, dom.database);
        assert_eq!(streamed.violations, dom.violations);
        assert_eq!(streamed.nodes, dom.nodes);
        assert_eq!(streamed.tuples, dom.tuples);
    }

    #[test]
    fn stream_text_matches_the_dom_path() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        for options in [CorpusOptions::default(), validate_only()] {
            for doc in docs() {
                let dom = bundle.process(&doc, &mut scratch, &options);
                let streamed = bundle.stream_text(&to_xml(&doc), &options).unwrap();
                assert_same_results(&streamed, &dom);
                // The shredding path builds a tree; the validate-only path
                // streams and records the checker's open contexts.
                assert_eq!(streamed.peak_open_bindings > 0, !options.shred);
            }
        }
    }

    #[test]
    fn corpus_runner_ignores_the_stream_toggle() {
        let bundle = bundle();
        let docs = docs();
        let streaming = CorpusOptions {
            stream: true,
            jobs: Jobs::new(3).unwrap(),
            ..CorpusOptions::default()
        };
        let dom = CorpusOptions {
            stream: false,
            ..streaming.clone()
        };
        assert_eq!(bundle.run(&docs, &streaming), bundle.run(&docs, &dom));
    }

    #[test]
    fn stream_text_reports_parse_errors() {
        let bundle = bundle();
        let dom = Document::parse_str("<r><open></r>").unwrap_err();
        for options in [CorpusOptions::default(), validate_only()] {
            let err = bundle.stream_text("<r><open></r>", &options).unwrap_err();
            assert_eq!(err, dom, "both front ends share one error table");
        }
    }

    #[test]
    fn streaming_skips_work_like_the_dom_path() {
        let bundle = bundle();
        let outcome = bundle
            .stream_text("<r><book isbn='1'/></r>", &validate_only())
            .unwrap();
        assert!(outcome.database.is_empty());
        assert_eq!(outcome.tuples, 0);
        let options = CorpusOptions {
            stream: true,
            shred: true,
            validate: false,
            ..CorpusOptions::default()
        };
        let outcome = bundle
            .stream_text("<r><book isbn='dup'/><book isbn='dup'/></r>", &options)
            .unwrap();
        assert!(outcome.violations.is_empty());
        assert_eq!(outcome.tuples, 2);
    }

    #[test]
    fn stream_shred_matches_process() {
        let bundle = bundle();
        let mut scratch = bundle.scratch();
        for doc in docs() {
            let xml = to_xml(&doc);
            let dom = bundle.process(&doc, &mut scratch, &CorpusOptions::default());
            assert_eq!(bundle.stream_shred(&xml, None).unwrap(), dom.database);
            assert_eq!(
                bundle.stream_shred(&xml, Some("book")).unwrap(),
                dom.database
            );
            assert!(bundle.stream_shred(&xml, Some("nope")).unwrap().is_empty());
        }
    }

    /// A key past the stream matcher's 127 atoms is validated on the tree:
    /// same answers, no panic.
    #[test]
    fn keys_too_long_to_stream_are_checked_on_the_tree() {
        let target = vec!["a"; 130].join("/");
        let keys = format!("K1: (ε, ({target}, {{}}))\nK2: (ε, (//book, {{@isbn}}))\n");
        let bundle = CorpusBundle::for_validation(parse_keys_text(&keys, "keys").unwrap());
        let mut scratch = bundle.scratch();
        for doc in docs() {
            let xml = to_xml(&doc);
            let dom = bundle.process(&doc, &mut scratch, &validate_only());
            let streamed = bundle.stream_text(&xml, &validate_only()).unwrap();
            assert_same_results(&streamed, &dom);
            assert_eq!(streamed.peak_open_bindings, 0, "a tree was built");
            let report = bundle.stream_check(&xml).unwrap();
            assert_eq!(report.all_violations(), dom.violations);
            assert_eq!(report.nodes, dom.nodes);
        }
    }
}
