//! The shared-state / per-request boundary: [`PreparedState`] and
//! [`RequestScratch`].
//!
//! Every consumer of prepared state — the corpus runner's worker threads,
//! the resident server's connection handlers, a caller embedding the
//! library in its own service — has the same two-part shape:
//!
//! * **immutable shared state**, prepared once and read by many threads:
//!   the [`crate::CorpusBundle`] with its key index, shred plans,
//!   propagation engines and label universe;
//! * **per-request scratch**, owned by one thread and reused across its
//!   requests: a private [`LabelUniverse`] clone to intern novel document
//!   labels into, a [`ShredScratch`] holding evaluation frontiers and the
//!   per-document `value()` memo, and the streaming key checker's
//!   [`KeyAutomaton`], whose cached states and buffers carry over from one
//!   document to the next.
//!
//! [`PreparedState`] names that boundary as a trait (shared state
//! manufactures its scratch), and [`RequestScratch`] is the scratch type
//! for a bundle.  A scratch is *derived from* a particular bundle (its
//! universe clone must agree with the bundle's compiled ids), so holders
//! of hot-swapped bundles re-derive their scratch when the published
//! epoch moves — see [`crate::SwapCell`] and the server crate.

use crate::bundle::CorpusBundle;
use xmlprop_xmlkeys::{KeyAutomaton, KeyIndex};
use xmlprop_xmlpath::PathTooLong;
use xmlprop_xmltransform::ShredScratch;
use xmlprop_xmltree::{DocIndex, Document, LabelUniverse};

/// Immutable shared state that can manufacture the per-request scratch it
/// is queried with; see the module docs.
pub trait PreparedState: Send + Sync {
    /// The per-request mutable state one thread owns.
    type Scratch: Send;

    /// A fresh scratch derived from this state.
    fn scratch(&self) -> Self::Scratch;
}

impl PreparedState for CorpusBundle {
    type Scratch = RequestScratch;

    fn scratch(&self) -> RequestScratch {
        RequestScratch::for_bundle(self)
    }
}

/// One thread's mutable state for processing documents against a
/// [`CorpusBundle`], reused across all that thread's requests.
#[derive(Debug)]
pub struct RequestScratch {
    universe: LabelUniverse,
    /// The length of the bundle's universe: the labels its keys and plans
    /// are compiled against.
    vocabulary: usize,
    shred: ShredScratch,
    /// The streaming key checker for the bundle's keys, built on the first
    /// text check; `Err` when a key is too long to stream.
    keys: Option<Result<KeyAutomaton, PathTooLong>>,
}

impl RequestScratch {
    /// A fresh scratch for `bundle`: a private clone of its label universe
    /// (ids are append-only; labels only a document uses never influence
    /// any output), empty shred buffers, and no key automaton yet.
    pub fn for_bundle(bundle: &CorpusBundle) -> Self {
        let universe = bundle.worker_universe();
        RequestScratch {
            vocabulary: universe.len(),
            universe,
            shred: ShredScratch::new(),
            keys: None,
        }
    }

    /// The streaming key checker for `keys` (the bundle's key index), built
    /// on first use; `None` when a key is too long to stream.
    pub(crate) fn key_automaton(&mut self, keys: &KeyIndex) -> Option<&mut KeyAutomaton> {
        self.keys
            .get_or_insert_with(|| KeyAutomaton::new(keys))
            .as_mut()
            .ok()
    }

    /// Builds a [`DocIndex`] for `doc` against this scratch's private
    /// universe — the per-document preparation both shredding and key
    /// validation run on.  The labels only `doc` used are forgotten again
    /// once it is indexed, so the universe stays the bundle's size however
    /// many documents pass through: no compiled key or plan names one of
    /// their ids, and the next document may reuse them.
    pub fn index_document(&mut self, doc: &Document) -> DocIndex {
        let index = DocIndex::build(doc, &mut self.universe);
        self.universe.truncate(self.vocabulary);
        index
    }

    /// The shred scratch, for callers driving
    /// [`xmlprop_xmltransform::ShredPlan::shred_with`] directly.
    pub fn shred_scratch(&mut self) -> &mut ShredScratch {
        &mut self.shred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_xmlkeys::KeySet;
    use xmlprop_xmltransform::Transformation;

    #[test]
    fn prepared_state_is_object_safe_enough_for_generic_services() {
        fn scratch_of<S: PreparedState>(state: &S) -> S::Scratch {
            state.scratch()
        }
        let bundle = CorpusBundle::prepare(
            KeySet::new(),
            Transformation::parse(
                "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }",
            )
            .unwrap(),
        );
        let mut scratch = scratch_of(&bundle);
        let doc = xmlprop_xmltree::ElementBuilder::new("r").build();
        let index = scratch.index_document(&doc);
        assert_eq!(index.len(), doc.len());
    }

    #[test]
    fn a_reused_scratch_forgets_each_documents_fresh_labels() {
        let bundle = CorpusBundle::prepare(
            xmlprop_xmlkeys::example_2_1_keys(),
            xmlprop_xmltransform::sample::example_2_4_transformation(),
        );
        let options = crate::CorpusOptions::default();
        let vocabulary = bundle.universe().len();
        let mut reused = bundle.scratch();
        for i in 0..300 {
            // Three labels no key, plan or earlier document names (an
            // element, an attribute, an empty element), and on odd `i` a
            // repeated isbn, so half the documents violate a key.
            let xml = format!(
                r#"<db><book isbn="{}" f{i}="a"><title>T{i}</title><chapter number="1"><name>N</name><g{i}>x</g{i}></chapter></book><book isbn="1"><h{i}/><title>U</title></book></db>"#,
                i % 2
            );
            let doc = Document::parse_str(&xml).unwrap();
            let got = bundle.process(&doc, &mut reused, &options);
            assert_eq!(reused.universe.len(), vocabulary, "after document {i}");
            let fresh = bundle.process(&doc, &mut bundle.scratch(), &options);
            assert_eq!(got.violations, fresh.violations, "document {i}");
            assert_eq!(got.violations.is_empty(), i % 2 == 0, "document {i}");
            assert_eq!(got.database, fresh.database, "document {i}");
            assert!(got.tuples > 0);
        }
    }

    #[test]
    fn a_reused_scratch_checks_text_as_a_fresh_checker_does() {
        let bundle = CorpusBundle::for_validation(xmlprop_xmlkeys::example_2_1_keys());
        let mut reused = bundle.scratch();
        for i in 0..300 {
            // Fresh labels at several depths (the automaton folds every
            // label no key names into one) and a chapter below a fresh
            // element; on odd `i` a repeated isbn.
            let xml = format!(
                r#"<db><book isbn="{}" f{i}="a"><title>T{i}</title><chapter number="1"><name>N</name><g{i}>x</g{i}></chapter><chapter number="2"/></book><book isbn="1"><h{i}><chapter number="1"/></h{i}><title>U</title></book></db>"#,
                i % 2
            );
            let got = bundle.check_text(&xml, &mut reused).unwrap();
            let fresh = xmlprop_xmlkeys::StreamKeyChecker::new(bundle.keys())
                .unwrap()
                .check(&xml)
                .unwrap();
            assert_eq!(got, fresh, "document {i}");
            assert_eq!(got.all_violations().is_empty(), i % 2 == 0, "document {i}");
            assert_eq!(
                reused.universe.len(),
                reused.vocabulary,
                "after document {i}"
            );
        }
    }
}
