//! Streaming execution of a prepared bundle: one event pass drives every
//! shred plan and the key checker at once, with no `Document` arena and no
//! `DocIndex`.
//!
//! Two entry points:
//!
//! * [`CorpusBundle::stream_text`] — the truly bounded-memory path: raw XML text
//!   through `xmlprop_xmltree::StreamParser`, peak retained state
//!   proportional to document depth plus open bindings;
//! * [`CorpusBundle::stream_document`] — replays an already-parsed
//!   [`Document`] as events, so the corpus runner ([`crate::CorpusOptions`]'s
//!   `stream` toggle) can exercise the streaming engines over in-memory
//!   corpora.
//!
//! Both produce [`DocOutcome`]s bit-for-bit equal to the prepared DOM path
//! (`database`, `violations`, `nodes`, `tuples`), plus the streaming-only
//! `peak_open_bindings` statistic.  Node-id-carrying violations match
//! because the streaming checker numbers nodes in document pre-order, which
//! is exactly the arena order of parser-built documents.

use crate::bundle::CorpusBundle;
use crate::run::{CorpusOptions, DocOutcome};
use xmlprop_reldb::Database;
use xmlprop_xmlkeys::StreamKeyChecker;
use xmlprop_xmlpath::LabelId;
use xmlprop_xmltransform::{ShredPlan, StreamShredder};
use xmlprop_xmltree::{Document, NodeId, NodeKind, ParseError, StreamEvent, StreamParser};

/// The per-document event sinks: one shredder per plan plus the key
/// checker, all fed from a single event pass.
struct StreamSinks<'a> {
    shredders: Vec<StreamShredder<'a>>,
    checker: Option<StreamKeyChecker<'a>>,
    nodes: usize,
}

impl<'a> StreamSinks<'a> {
    /// One shredder per plan of `plans`, plus the key checker when
    /// `validate`.
    fn new(
        bundle: &'a CorpusBundle,
        plans: impl IntoIterator<Item = &'a ShredPlan>,
        validate: bool,
    ) -> Self {
        StreamSinks {
            shredders: plans
                .into_iter()
                .map(|plan| StreamShredder::new(plan, bundle.universe()))
                .collect(),
            checker: validate.then(|| StreamKeyChecker::new(bundle.keys())),
            nodes: 0,
        }
    }

    /// The sinks [`CorpusBundle::stream_text`] feeds under `options`.
    fn for_options(bundle: &'a CorpusBundle, options: &CorpusOptions) -> Self {
        let plans: &[ShredPlan] = if options.shred {
            bundle.plan().plans()
        } else {
            &[]
        };
        StreamSinks::new(bundle, plans, options.validate)
    }

    /// The one parser pass: feeds every event of `xml` to the sinks.
    fn feed(&mut self, bundle: &CorpusBundle, xml: &str) -> Result<(), ParseError> {
        let mut parser = StreamParser::with_universe(xml, bundle.universe());
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::StartElement { name, label } => self.start_element(label, name),
                StreamEvent::Attribute { name, label, value } => {
                    self.attribute(label, name, &value)
                }
                StreamEvent::Text { value } => self.text(&value),
                StreamEvent::EndElement => self.end_element(),
            }
        }
        Ok(())
    }

    fn start_element(&mut self, label: Option<LabelId>, name: &str) {
        self.nodes += 1;
        for shredder in &mut self.shredders {
            shredder.start_element(label, name);
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.start_element(label);
        }
    }

    fn attribute(&mut self, label: Option<LabelId>, name: &str, value: &str) {
        self.nodes += 1;
        for shredder in &mut self.shredders {
            shredder.attribute(label, name, value);
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.attribute(label, value);
        }
    }

    fn text(&mut self, value: &str) {
        self.nodes += 1;
        for shredder in &mut self.shredders {
            shredder.text(value);
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.text();
        }
    }

    fn end_element(&mut self) {
        for shredder in &mut self.shredders {
            shredder.end_element();
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.end_element();
        }
    }

    fn finish(self) -> DocOutcome {
        let mut peak = 0usize;
        let mut database = Database::new();
        for shredder in self.shredders {
            peak = peak.max(shredder.peak_open_bindings());
            database.insert(shredder.finish());
        }
        let violations = match self.checker {
            Some(checker) => {
                let report = checker.finish();
                peak = peak.max(report.peak_open_contexts);
                report.all_violations()
            }
            None => Vec::new(),
        };
        let tuples = database.relations().map(|r| r.len()).sum();
        DocOutcome {
            database,
            violations,
            nodes: self.nodes,
            tuples,
            peak_open_bindings: peak,
        }
    }
}

/// A pre-order replay frame: open a node's events, or emit the close of the
/// element whose subtree just finished.
enum Replay {
    Open(NodeId),
    Close,
}

impl CorpusBundle {
    /// Streams raw XML text through the bundle's plans and keys in one
    /// parser pass — no `Document`, no `DocIndex`; peak memory is bounded
    /// by document depth plus open bindings, not document size.
    ///
    /// The outcome is bit-for-bit what parsing the text and running
    /// [`CorpusBundle::process`] would produce.
    pub fn stream_text(
        &self,
        xml: &str,
        options: &CorpusOptions,
    ) -> Result<DocOutcome, ParseError> {
        let mut sinks = StreamSinks::for_options(self, options);
        sinks.feed(self, xml)?;
        Ok(sinks.finish())
    }

    /// Streams raw XML text through the key checker only, returning the
    /// **per-key** violation report the renderers need (Σ order, grouped by
    /// key) — the streaming twin of per-key `violations_of` loops.
    pub fn stream_check(
        &self,
        xml: &str,
    ) -> Result<xmlprop_xmlkeys::StreamCheckReport, ParseError> {
        let mut sinks = StreamSinks::new(self, [], true);
        sinks.feed(self, xml)?;
        Ok(sinks
            .checker
            .expect("validating sinks carry a key checker")
            .finish())
    }

    /// Streams raw XML text through the shred plans only — all of them, or
    /// the one populating `relation` (silently none when the name is
    /// unknown; callers validate names first for the shared diagnostic).
    pub fn stream_shred(&self, xml: &str, relation: Option<&str>) -> Result<Database, ParseError> {
        let plans: Vec<&ShredPlan> = match relation {
            Some(rel) => self.plan().plan(rel).into_iter().collect(),
            None => self.plan().plans().iter().collect(),
        };
        let mut sinks = StreamSinks::new(self, plans, false);
        sinks.feed(self, xml)?;
        Ok(sinks.finish().database)
    }

    /// Replays a parsed document as parse events through the streaming
    /// engines — the corpus runner's `stream` mode.  Requires the
    /// parser/builder child layout (attributes before content, ids in
    /// document order) for violation node ids to line up with the DOM path.
    pub fn stream_document(&self, doc: &Document, options: &CorpusOptions) -> DocOutcome {
        let mut sinks = StreamSinks::for_options(self, options);
        let universe = self.universe();
        let mut stack = vec![Replay::Open(doc.root())];
        while let Some(item) = stack.pop() {
            match item {
                Replay::Open(id) => {
                    let label = doc.label(id);
                    match doc.kind(id) {
                        NodeKind::Element => {
                            sinks.start_element(universe.lookup(label), label);
                            stack.push(Replay::Close);
                            let children: Vec<NodeId> = doc.children(id).collect();
                            for &child in children.iter().rev() {
                                stack.push(Replay::Open(child));
                            }
                        }
                        NodeKind::Attribute => sinks.attribute(
                            universe.lookup(label),
                            label.strip_prefix('@').unwrap_or(label),
                            doc.text_value(id).unwrap_or_default(),
                        ),
                        NodeKind::Text => sinks.text(doc.text_value(id).unwrap_or_default()),
                    }
                }
                Replay::Close => sinks.end_element(),
            }
        }
        sinks.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Jobs;
    use crate::source::{parse_keys_text, parse_rules_text};
    use crate::state::PreparedState;
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

    /// The DOM outcome with the streaming-only statistic blanked, for
    /// field-by-field comparison.
    fn assert_same_results(streamed: &DocOutcome, dom: &DocOutcome) {
        assert_eq!(streamed.database, dom.database);
        assert_eq!(streamed.violations, dom.violations);
        assert_eq!(streamed.nodes, dom.nodes);
        assert_eq!(streamed.tuples, dom.tuples);
    }

    #[test]
    fn stream_text_matches_the_dom_path() {
        let bundle = bundle();
        let options = CorpusOptions::default();
        let mut scratch = bundle.scratch();
        for doc in docs() {
            let dom = bundle.process(&doc, &mut scratch, &options);
            let streamed = bundle.stream_text(&to_xml(&doc), &options).unwrap();
            assert_same_results(&streamed, &dom);
        }
    }

    #[test]
    fn stream_document_matches_the_dom_path() {
        let bundle = bundle();
        let options = CorpusOptions::default();
        let mut scratch = bundle.scratch();
        for doc in docs() {
            let dom = bundle.process(&doc, &mut scratch, &options);
            let streamed = bundle.stream_document(&doc, &options);
            assert_same_results(&streamed, &dom);
        }
    }

    #[test]
    fn corpus_runner_stream_toggle_matches_dom_runs() {
        let bundle = bundle();
        let docs = docs();
        let dom = bundle.run(&docs, &CorpusOptions::default());
        let streaming = CorpusOptions {
            stream: true,
            jobs: Jobs::new(3).unwrap(),
            ..CorpusOptions::default()
        };
        let streamed = bundle.run(&docs, &streaming);
        assert_eq!(streamed.documents.len(), dom.documents.len());
        for (s, d) in streamed.documents.iter().zip(&dom.documents) {
            assert_same_results(s, d);
        }
        assert_eq!(streamed.covers, dom.covers);
        assert!(streamed.stats.peak_open_bindings > 0);
        // Parallel streaming merges deterministically, like the DOM path.
        let sequential = bundle.run_sequential(&docs, &streaming);
        assert_eq!(streamed, sequential);
    }

    #[test]
    fn stream_text_reports_parse_errors() {
        let bundle = bundle();
        let err = bundle
            .stream_text("<r><open></r>", &CorpusOptions::default())
            .unwrap_err();
        let dom = Document::parse_str("<r><open></r>").unwrap_err();
        assert_eq!(err, dom, "both front ends share one error table");
    }

    #[test]
    fn streaming_skips_work_like_the_dom_path() {
        let bundle = bundle();
        let options = CorpusOptions {
            stream: true,
            shred: false,
            validate: true,
            ..CorpusOptions::default()
        };
        let outcome = bundle
            .stream_text("<r><book isbn='1'/></r>", &options)
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
}
