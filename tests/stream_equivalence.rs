//! Differential property tests for the text front end
//! (`CorpusBundle::stream_text`) under both of its option sets:
//!
//! * shred + validate, which parses the text and runs the DOM pipeline;
//! * validate only, which streams the text through `StreamKeyChecker` —
//!   no `Document`, no `DocIndex`.
//!
//! Each must be **bit-for-bit** equal to the DOM pipeline on random
//! workload documents, on documents with injected key violations, on deep
//! narrow trees, and — for malformed inputs — must report the *same*
//! `ParseError` the tree parser reports, since both fronts share one
//! tokenizer.
//!
//! The bounded-memory claim of streaming validation is pinned at the
//! bottom: validating a generated wide million-node document must record
//! open key contexts (`peak_open_bindings`) orders of magnitude below the
//! node count.

use proptest::prelude::*;
use xmlprop::pipeline::{CorpusBundle, CorpusOptions, DocOutcome, Jobs};
use xmlprop::prelude::*;
use xmlprop::workload::{generate, generate_document, DocConfig, WorkloadConfig};
use xmlprop::xmltree::to_xml;

fn options(shred: bool, stream: bool) -> CorpusOptions {
    CorpusOptions {
        jobs: Jobs::default(),
        shred,
        validate: true,
        covers: false,
        stream,
    }
}

/// The two option sets `stream_text` serves: shred + validate (the parse
/// path) and validate only (the streaming key checker).
const SHRED: [bool; 2] = [true, false];

/// Bundles a workload's Σ and universal rule the way the pipeline would.
fn bundle_of(w: &xmlprop::workload::Workload) -> CorpusBundle {
    CorpusBundle::prepare(
        w.sigma.clone(),
        Transformation::new(vec![w.universal.clone()]),
    )
}

/// Runs the serialized document through both fronts under both option
/// sets and asserts the outcomes agree field for field (the open-context
/// stat is streaming-only and excluded).  Returns the validate-only
/// outcome, the one that streamed, for extra assertions.
fn assert_fronts_agree(bundle: &CorpusBundle, text: &str) -> DocOutcome {
    let doc = Document::parse_str(text).expect("the serialized document reparses");
    let [_, validate_only] = SHRED.map(|shred| {
        let dom = bundle
            .run(std::slice::from_ref(&doc), &options(shred, false))
            .documents
            .remove(0);
        let streamed = bundle
            .stream_text(text, &options(shred, true))
            .expect("the serialized document streams");
        assert_eq!(streamed.database, dom.database, "shredded relations differ");
        assert_eq!(streamed.violations, dom.violations, "violations differ");
        assert_eq!(streamed.nodes, dom.nodes, "node counts differ");
        assert_eq!(streamed.tuples, dom.tuples, "tuple counts differ");
        assert_eq!(
            streamed.peak_open_bindings == 0,
            shred,
            "only the validate-only set streams"
        );
        streamed
    });
    validate_only
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random workload documents: shredded relations, key violations and
    /// the counters all agree between the two fronts.
    #[test]
    fn streaming_matches_the_dom_pipeline_on_random_documents(
        fields in 4usize..10,
        depth in 1usize..4,
        branching in 1usize..4,
        seed in 0u64..40,
        omit in prop_oneof![Just(0.0f64), Just(0.3f64), Just(0.6f64)],
    ) {
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 2).with_seed(seed));
        let doc = generate_document(
            &w,
            &DocConfig { branching, omission_probability: omit, seed, ..DocConfig::default() },
        );
        let outcome = assert_fronts_agree(&bundle_of(&w), &to_xml(&doc));
        prop_assert!(outcome.peak_open_bindings > 0, "the open-context stat must be recorded");
    }

    /// Injected key violations: duplicating a level-0 entity's identifier
    /// breaks the workload's `chain0` key, and both fronts report the
    /// *same* violations — same keys, same nodes, same order.
    #[test]
    fn streaming_reports_the_same_injected_violations(
        fields in 4usize..9,
        depth in 1usize..4,
        branching in 1usize..3,
        seed in 0u64..40,
    ) {
        let depth = depth.min(fields);
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 1).with_seed(seed));
        let mut doc = generate_document(
            &w,
            &DocConfig { branching, seed, ..DocConfig::default() },
        );
        // The generator names level-0 entities `{label}-{sibling}`; a fresh
        // sibling re-using identifier `{label}-0` collides with the first.
        let label0 = w.level_labels[0].clone();
        let dup = doc.add_element(doc.root(), label0.clone());
        doc.add_attribute(dup, "id0", format!("{label0}-0"));
        let outcome = assert_fronts_agree(&bundle_of(&w), &to_xml(&doc));
        prop_assert!(
            !outcome.violations.is_empty(),
            "the duplicated identifier must be flagged by both fronts"
        );
    }

    /// Deep, narrow trees (branching 1, up to 8 entity levels): the
    /// streaming key checker follows the recursion where the DOM path
    /// follows the arena — outputs must still be identical.
    #[test]
    fn streaming_matches_the_dom_pipeline_on_deep_narrow_trees(
        depth in 4usize..9,
        seed in 0u64..30,
        omit in prop_oneof![Just(0.0f64), Just(0.4f64)],
    ) {
        let w = generate(&WorkloadConfig::new(depth + 2, depth, depth).with_seed(seed));
        let doc = generate_document(
            &w,
            &DocConfig { branching: 1, omission_probability: omit, seed, ..DocConfig::default() },
        );
        assert_fronts_agree(&bundle_of(&w), &to_xml(&doc));
    }

    /// Malformed inputs: any proper prefix of a serialized document is
    /// broken XML, and both fronts — sharing one tokenizer — must report
    /// the *identical* `ParseError` (same position, same message).
    #[test]
    fn malformed_inputs_fail_identically_on_both_fronts(
        fields in 4usize..8,
        depth in 1usize..3,
        seed in 0u64..30,
        permille in 0u64..1000,
    ) {
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 1).with_seed(seed));
        let doc = generate_document(&w, &DocConfig { branching: 2, seed, ..DocConfig::default() });
        let text = to_xml(&doc);
        let mut cut = (text.len() - 1) * permille as usize / 1000;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let bad = &text[..cut];
        let bundle = bundle_of(&w);
        let dom_err = Document::parse_str(bad).expect_err("a proper prefix cannot parse");
        for shred in SHRED {
            let stream_err = bundle
                .stream_text(bad, &options(shred, true))
                .expect_err("a proper prefix cannot stream");
            prop_assert_eq!(&stream_err, &dom_err, "the two fronts share one error table");
        }
    }
}

/// Text spliced into documents by
/// `parse_and_stream_check_agree_on_mangled_documents`: every byte the
/// tokenizer branches on, letters, multi-byte characters, and the
/// openers and closers of its constructs.
#[rustfmt::skip]
const SPLICES: &[&str] = &[
    "<", ">", "/", "=", "\"", "'", "&", ";", "!", "?", "[", "]", "-", "q", "é", "\u{a0}", " ",
    "</", "/>", "<!--", "-->", "<?", "?>", "<![CDATA[", "]]>", "&amp;", "&#", "<e0>",
];

/// Byte `permille / 1000` of the way through `text`, moved back to a
/// character boundary.
fn boundary(text: &str, permille: usize) -> usize {
    let mut at = text.len() * permille / 1000;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Workload documents with text spliced in and sometimes cut short:
    /// the tree parser and the streaming key checker — the scan's two
    /// consumers — accept the same inputs, fail with the same
    /// `ParseError`, and on an accepted input agree on its node count and
    /// violations.
    #[test]
    fn parse_and_stream_check_agree_on_mangled_documents(
        fields in 4usize..8,
        depth in 1usize..3,
        seed in 0u64..30,
        splices in prop::collection::vec((0usize..=1000, 0..SPLICES.len()), 1..4),
        cut in prop_oneof![Just(1000usize), 0usize..=1000],
    ) {
        let w = generate(&WorkloadConfig::new(fields, depth, depth + 1).with_seed(seed));
        let doc = generate_document(&w, &DocConfig { branching: 2, seed, ..DocConfig::default() });
        let mut text = to_xml(&doc);
        for (permille, splice) in splices {
            text.insert_str(boundary(&text, permille), SPLICES[splice]);
        }
        text.truncate(boundary(&text, cut));
        let bundle = bundle_of(&w);
        let streamed = StreamKeyChecker::new(bundle.keys())
            .expect("workload keys stream")
            .check(&text);
        match (Document::parse_str(&text), streamed) {
            (Err(dom), Err(stream)) => prop_assert_eq!(stream, dom),
            (Ok(doc), Ok(report)) => {
                let index = bundle.scratch().index_document(&doc);
                prop_assert_eq!(report.nodes, doc.len());
                prop_assert_eq!(report.all_violations(), bundle.keys().violations(&doc, &index));
            }
            (dom, stream) => prop_assert!(
                false,
                "only one front accepted {:?}: tree {:?}, stream {:?}",
                text,
                dom.err(),
                stream.err()
            ),
        }
    }
}

/// The bounded-memory claim of streaming validation, on a real
/// million-node document: a wide two-level corpus document validates with
/// a handful of open key contexts — O(depth + open contexts), not
/// O(document size).  The DOM is built here only as *test scaffolding* to
/// produce the input text; the streaming pass under test never builds one.
#[test]
fn wide_million_node_documents_stream_with_a_tiny_frontier() {
    let w = generate(&WorkloadConfig::new(6, 1, 2).with_seed(3));
    let doc = generate_document(
        &w,
        &DocConfig {
            branching: 140_000,
            omission_probability: 0.0,
            seed: 3,
            ..DocConfig::default()
        },
    );
    let nodes = doc.len();
    assert!(
        nodes > 1_000_000,
        "the fixture must exceed 1M nodes, got {nodes}"
    );
    let text = to_xml(&doc);
    drop(doc);
    let outcome = bundle_of(&w)
        .stream_text(&text, &options(false, true))
        .expect("the generated document streams");
    assert_eq!(outcome.nodes, nodes);
    assert!(
        outcome.violations.is_empty(),
        "generated documents satisfy Σ"
    );
    assert!(
        outcome.peak_open_bindings > 0 && outcome.peak_open_bindings <= 16,
        "open contexts must track depth, not the {nodes}-node document; \
         recorded peak_open_bindings = {}",
        outcome.peak_open_bindings
    );
}
