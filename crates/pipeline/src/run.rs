//! The corpus runner: a chunked work queue fanned out over scoped worker
//! threads, merged deterministically by document index.
//!
//! # Execution model
//!
//! * The main thread owns the corpus (`&[Document]`) and the prepared
//!   [`CorpusBundle`]; workers borrow both through
//!   [`std::thread::scope`] — no `'static` bounds, no cloning of documents.
//! * Work is handed out in **chunks of consecutive document indices**
//!   through a `Mutex<usize>` cursor (nothing fancier is needed: a grab is
//!   two integer operations under the lock, and chunking keeps the lock
//!   off the per-document fast path).  Chunks also preserve locality: a
//!   worker's `value()` memo and evaluation scratch stay warm across the
//!   documents of one chunk.
//! * Each worker owns its mutable state: one
//!   [`crate::RequestScratch`] (a private clone of the bundle's label
//!   universe — append-only ids, see [`CorpusBundle::worker_universe`] —
//!   plus shred buffers) reused across all its documents, manufactured
//!   through the [`PreparedState`] boundary.
//! * Finished documents flow back over an [`std::sync::mpsc`] channel as
//!   `(index, outcome)` pairs and are placed into a slot vector by index —
//!   the merged [`CorpusResult`] is ordered by document index, **never** by
//!   completion order, so the parallel result is bit-for-bit the sequential
//!   one ([`CorpusBundle::run_sequential`] is the oracle the equivalence
//!   property tests pin against).
//!
//! Per-document work is embarrassingly parallel (documents share no mutable
//! state), which is why the pipeline needs no locking beyond the queue
//! cursor; the corpus-level covers are document-independent and computed
//! once on the main thread.

use crate::bundle::{CorpusBundle, RuleCover};
use crate::error::Error;
use crate::state::PreparedState;
use std::num::NonZeroUsize;
use std::sync::{mpsc, Mutex};
use xmlprop_reldb::Database;
use xmlprop_xmlkeys::Violation;
use xmlprop_xmltree::Document;

/// Upper bound on worker threads: far above any plausible core count, low
/// enough that a typo'd `--jobs 10000` is rejected instead of spawning ten
/// thousand threads.
pub const MAX_JOBS: usize = 256;

/// A validated worker-thread count (`1..=`[`MAX_JOBS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Validates a thread count.
    pub fn new(jobs: usize) -> Result<Jobs, Error> {
        match NonZeroUsize::new(jobs) {
            None => Err(Error::jobs("worker thread count must be at least 1")),
            Some(_) if jobs > MAX_JOBS => Err(Error::jobs(format!(
                "worker thread count {jobs} exceeds the maximum of {MAX_JOBS}"
            ))),
            Some(n) => Ok(Jobs(n)),
        }
    }

    /// The thread count.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs(NonZeroUsize::MIN)
    }
}

impl std::str::FromStr for Jobs {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let n: usize = s.parse().map_err(|_| {
            Error::jobs(format!(
                "worker thread count expects a positive integer, got `{s}`"
            ))
        })?;
        Jobs::new(n)
    }
}

/// What a corpus run computes.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusOptions {
    /// Worker threads to fan the corpus over (clamped to the corpus size).
    pub jobs: Jobs,
    /// Shred every document through the prepared plans.
    pub shred: bool,
    /// Validate every document against Σ, collecting violations.
    pub validate: bool,
    /// Compute the per-rule propagated minimum covers (document-independent;
    /// benchmarks that time pure document throughput switch this off).
    pub covers: bool,
    /// Not consulted by anything: the text entry points
    /// ([`CorpusBundle::process_text`], [`CorpusBundle::stream_text`])
    /// stream whenever only `validate` is on, and [`CorpusBundle::process`]
    /// and [`CorpusBundle::run`] are handed parsed documents.  The field
    /// stays because the benchmark package under `perfbench/` constructs
    /// it.
    pub stream: bool,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            jobs: Jobs::default(),
            shred: true,
            validate: true,
            covers: true,
            stream: false,
        }
    }
}

#[cfg(test)]
impl CorpusOptions {
    /// The default task set (shred + validate + covers) at a given thread
    /// count.
    pub fn with_jobs(jobs: Jobs) -> Self {
        CorpusOptions {
            jobs,
            ..CorpusOptions::default()
        }
    }
}

/// Everything computed for one document of the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct DocOutcome {
    /// The shredded database, one relation per rule (empty when shredding
    /// is off).
    pub database: Database,
    /// All key violations, in Σ order (empty when validation is off or the
    /// document satisfies Σ).
    pub violations: Vec<Violation>,
    /// Node count of the document.
    pub nodes: usize,
    /// Total tuples shredded across all relations.
    pub tuples: usize,
    /// Peak simultaneously-open key contexts held by the streaming key
    /// checker on [`CorpusBundle::process_text`]'s validate-only path; 0
    /// whenever a document tree was built.
    pub peak_open_bindings: usize,
}

/// Corpus-level totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Number of documents processed.
    pub documents: usize,
    /// Total nodes across the corpus.
    pub nodes: usize,
    /// Total tuples shredded.
    pub tuples: usize,
    /// Total key violations found.
    pub violations: usize,
    /// Number of documents with at least one violation.
    pub invalid_documents: usize,
    /// Maximum per-document [`DocOutcome::peak_open_bindings`] across the
    /// corpus (0 for the parsed documents [`CorpusBundle::run`] is handed).
    pub peak_open_bindings: usize,
}

/// The merged result of a corpus run, ordered by document index.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusResult {
    /// One outcome per input document, in input order.
    pub documents: Vec<DocOutcome>,
    /// The per-rule propagated minimum covers (empty when `covers` is off).
    pub covers: Vec<RuleCover>,
    /// Corpus-level totals.
    pub stats: CorpusStats,
}

/// Chunk size for the work queue: a few chunks per worker for balance
/// without hammering the cursor lock, capped so huge corpora still
/// rebalance.
fn chunk_size(documents: usize, jobs: usize) -> usize {
    (documents / (jobs * 4)).clamp(1, 64)
}

/// The reusable fan-out scaffold: maps `work` over an indexed work list
/// across `jobs` scoped worker threads, returning results **in item
/// order** (never completion order).
///
/// This is the one copy of the chunked `Mutex<usize>` cursor + `mpsc`
/// merge machinery: [`CorpusBundle::run`] drives per-document processing
/// through it, and the CLI's directory batches reuse it to read, parse and
/// process one file per item.  Each worker owns one `worker_state()` value
/// for its whole lifetime (scratch buffers, universe clones); `chunk`
/// consecutive indices are handed out per cursor grab (pass 1 for I/O-bound
/// work, more to amortize the lock and keep per-worker caches warm).  With one
/// effective worker the scaffold collapses to a plain in-order loop on the
/// calling thread.
pub fn fan_out<T, R, W>(
    items: &[T],
    jobs: usize,
    chunk: usize,
    worker_state: impl Fn() -> W + Sync,
    work: impl Fn(&mut W, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    let chunk = chunk.max(1);
    if jobs <= 1 {
        let mut state = worker_state();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| work(&mut state, i, item))
            .collect();
    }

    let cursor = Mutex::new(0usize);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let worker_state = &worker_state;
            let work = &work;
            scope.spawn(move || {
                let mut state = worker_state();
                loop {
                    let start = {
                        let mut next = cursor.lock().expect("queue cursor poisoned");
                        let start = *next;
                        *next = n.min(start + chunk);
                        start
                    };
                    if start >= n {
                        break;
                    }
                    for (offset, item) in items[start..n.min(start + chunk)].iter().enumerate() {
                        // The receiver outlives the scope; a send only
                        // fails if the main thread panicked, which the
                        // scope is about to propagate anyway.
                        let _ = tx.send((start + offset, work(&mut state, start + offset, item)));
                    }
                }
            });
        }
        // Workers hold the remaining senders; the channel closes when the
        // last one finishes its queue.
        drop(tx);
        for (index, outcome) in rx {
            slots[index] = Some(outcome);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is processed exactly once"))
        .collect()
}

fn merge(documents: Vec<DocOutcome>, covers: Vec<RuleCover>) -> CorpusResult {
    let mut stats = CorpusStats {
        documents: documents.len(),
        ..CorpusStats::default()
    };
    for outcome in &documents {
        stats.nodes += outcome.nodes;
        stats.tuples += outcome.tuples;
        stats.violations += outcome.violations.len();
        stats.invalid_documents += usize::from(!outcome.violations.is_empty());
        stats.peak_open_bindings = stats.peak_open_bindings.max(outcome.peak_open_bindings);
    }
    CorpusResult {
        documents,
        covers,
        stats,
    }
}

impl CorpusBundle {
    /// Processes a corpus sequentially on the calling thread — the
    /// reference semantics the parallel [`CorpusBundle::run`] is
    /// property-tested against (`options.jobs` is ignored).
    pub fn run_sequential(&self, docs: &[Document], options: &CorpusOptions) -> CorpusResult {
        let mut scratch = self.scratch();
        let documents = docs
            .iter()
            .map(|doc| self.process(doc, &mut scratch, options))
            .collect();
        let covers = if options.covers {
            self.covers().to_vec()
        } else {
            Vec::new()
        };
        merge(documents, covers)
    }

    /// Processes a corpus over `options.jobs` scoped worker threads fed by
    /// a chunked work queue ([`fan_out`]), merging per-document results by
    /// document index (bit-for-bit the [`CorpusBundle::run_sequential`]
    /// result, whatever the completion order).
    pub fn run(&self, docs: &[Document], options: &CorpusOptions) -> CorpusResult {
        let n = docs.len();
        let jobs = options.jobs.get().min(n.max(1));
        if jobs <= 1 {
            return self.run_sequential(docs, options);
        }
        let documents = fan_out(
            docs,
            jobs,
            chunk_size(n, jobs),
            || self.scratch(),
            |scratch, _, doc| self.process(doc, scratch, options),
        );
        let covers = if options.covers {
            self.covers().to_vec()
        } else {
            Vec::new()
        };
        merge(documents, covers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_xmlkeys::{KeySet, XmlKey};
    use xmlprop_xmltransform::Transformation;
    use xmlprop_xmltree::ElementBuilder;

    fn sample_bundle() -> CorpusBundle {
        let sigma = KeySet::from_keys(vec![
            XmlKey::parse("(ε, (//book, {@isbn}))").unwrap(),
            XmlKey::parse("(//book, (chapter, {@number}))").unwrap(),
        ]);
        let t = Transformation::parse(
            "rule book(isbn, chapter) {
                xb := xr//book;
                xi := xb/@isbn;
                xc := xb/chapter;
                xn := xc/@number;
                isbn := value(xi);
                chapter := value(xn);
            }",
        )
        .unwrap();
        CorpusBundle::prepare(sigma, t)
    }

    fn good_doc(isbn: &str) -> Document {
        ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", isbn)
                    .child(ElementBuilder::new("chapter").attr("number", "1"))
                    .child(ElementBuilder::new("chapter").attr("number", "2")),
            )
            .build()
    }

    fn bad_doc() -> Document {
        // Two books sharing an isbn: one DuplicateKeyValue violation.
        ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "dup"))
            .child(ElementBuilder::new("book").attr("isbn", "dup"))
            .build()
    }

    fn corpus() -> Vec<Document> {
        (0..13)
            .map(|i| {
                if i % 4 == 3 {
                    bad_doc()
                } else {
                    good_doc(&format!("isbn-{i}"))
                }
            })
            .collect()
    }

    #[test]
    fn bundle_and_results_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The audit the scoped fan-out relies on: everything shared
        // (bundle, plans, indexes) and everything merged (outcomes with
        // `Arc<str>` values) crosses threads.
        assert_send_sync::<CorpusBundle>();
        assert_send_sync::<xmlprop_xmltransform::TransformationPlan>();
        assert_send_sync::<xmlprop_xmltransform::ShredPlan>();
        assert_send_sync::<xmlprop_xmlkeys::KeyIndex>();
        assert_send_sync::<xmlprop_core::PropagationEngine>();
        assert_send_sync::<xmlprop_xmltree::DocIndex>();
        assert_send_sync::<Document>();
        assert_send_sync::<xmlprop_reldb::Value>();
        assert_send_sync::<DocOutcome>();
        assert_send_sync::<CorpusResult>();
    }

    #[test]
    fn jobs_validation() {
        assert!(Jobs::new(0).is_err());
        assert!(Jobs::new(MAX_JOBS + 1).is_err());
        assert_eq!(Jobs::new(4).unwrap().get(), 4);
        assert_eq!(Jobs::default().get(), 1);
        assert_eq!("8".parse::<Jobs>().unwrap().get(), 8);
        assert!("0".parse::<Jobs>().is_err());
        assert!("x".parse::<Jobs>().is_err());
        assert!("-1".parse::<Jobs>().is_err());
    }

    #[test]
    fn parallel_matches_sequential_on_the_sample_corpus() {
        let bundle = sample_bundle();
        let docs = corpus();
        let sequential = bundle.run_sequential(&docs, &CorpusOptions::default());
        for jobs in [1usize, 2, 3, 8] {
            let options = CorpusOptions::with_jobs(Jobs::new(jobs).unwrap());
            assert_eq!(
                bundle.run(&docs, &options),
                sequential,
                "jobs = {jobs} must merge deterministically"
            );
        }
    }

    #[test]
    fn stats_and_violations_are_aggregated() {
        let bundle = sample_bundle();
        let docs = corpus();
        let result = bundle.run(&docs, &CorpusOptions::with_jobs(Jobs::new(2).unwrap()));
        assert_eq!(result.stats.documents, 13);
        assert_eq!(result.stats.invalid_documents, 3); // indices 3, 7, 11
        assert_eq!(result.stats.violations, 3);
        assert_eq!(
            result.stats.nodes,
            docs.iter().map(Document::len).sum::<usize>()
        );
        assert_eq!(
            result.stats.tuples,
            result.documents.iter().map(|d| d.tuples).sum::<usize>()
        );
        // Violations sit exactly at the bad documents, in input order.
        for (i, outcome) in result.documents.iter().enumerate() {
            assert_eq!(!outcome.violations.is_empty(), i % 4 == 3, "doc {i}");
        }
        // The cover is per-rule, document-independent.
        assert_eq!(result.covers.len(), 1);
        assert_eq!(result.covers[0].relation, "book");
        assert_eq!(result.covers[0].cover, bundle.engines()[0].minimum_cover());
        // Computed once per bundle: every call reads the same covers.
        assert!(std::ptr::eq(bundle.covers(), bundle.covers()));
        assert_eq!(bundle.covers(), result.covers);
    }

    #[test]
    fn task_toggles_skip_work() {
        let bundle = sample_bundle();
        let docs = corpus();
        let shred_only = CorpusOptions {
            jobs: Jobs::new(2).unwrap(),
            shred: true,
            validate: false,
            covers: false,
            stream: false,
        };
        let result = bundle.run(&docs, &shred_only);
        assert!(result.covers.is_empty());
        assert_eq!(result.stats.violations, 0);
        assert!(result.stats.tuples > 0);

        let validate_only = CorpusOptions {
            jobs: Jobs::new(2).unwrap(),
            shred: false,
            validate: true,
            covers: false,
            stream: false,
        };
        let result = bundle.run(&docs, &validate_only);
        assert_eq!(result.stats.tuples, 0);
        assert_eq!(result.stats.violations, 3);
        assert!(result.documents.iter().all(|d| d.database.is_empty()));
    }

    #[test]
    fn empty_corpus_and_empty_bundle_edge_cases() {
        let bundle = sample_bundle();
        let result = bundle.run(&[], &CorpusOptions::with_jobs(Jobs::new(8).unwrap()));
        assert_eq!(result.stats, CorpusStats::default());
        assert!(result.documents.is_empty());

        // Validation-only bundle over documents (no rules at all).
        let validation = CorpusBundle::for_validation(bundle.sigma().clone());
        let result = validation.run(&corpus(), &CorpusOptions::with_jobs(Jobs::new(2).unwrap()));
        assert_eq!(result.stats.tuples, 0);
        assert_eq!(result.stats.violations, 3);
        assert!(result.covers.is_empty());

        // Shredding-only bundle (empty Σ): nothing can be violated.
        let shredding = CorpusBundle::for_shredding(bundle.transformation().clone());
        let result = shredding.run(&corpus(), &CorpusOptions::with_jobs(Jobs::new(2).unwrap()));
        assert_eq!(result.stats.violations, 0);
        assert!(result.stats.tuples > 0);
    }

    #[test]
    fn jobs_beyond_corpus_size_degrade_gracefully() {
        let bundle = sample_bundle();
        let docs = vec![good_doc("only")];
        let wide = CorpusOptions::with_jobs(Jobs::new(64).unwrap());
        let result = bundle.run(&docs, &wide);
        assert_eq!(result, bundle.run_sequential(&docs, &wide));
        assert_eq!(result.stats.documents, 1);
    }

    #[test]
    fn fan_out_preserves_item_order_and_reuses_worker_state() {
        let items: Vec<usize> = (0..137).collect();
        for jobs in [1usize, 2, 5, 16] {
            for chunk in [1usize, 3, 64] {
                // Each worker counts how many items it processed through its
                // private state; results must come back in item order.
                let results = fan_out(
                    &items,
                    jobs,
                    chunk,
                    || 0usize,
                    |seen, i, item| {
                        *seen += 1;
                        (*item * 2, i, *seen)
                    },
                );
                assert_eq!(results.len(), items.len());
                for (i, (doubled, index, seen)) in results.iter().enumerate() {
                    assert_eq!(*doubled, items[i] * 2, "jobs={jobs} chunk={chunk}");
                    assert_eq!(*index, i);
                    assert!(*seen >= 1);
                }
                // Worker states were reused: total processed equals the
                // item count exactly (each item bumps one worker's counter).
                let max_seen = results.iter().map(|(_, _, s)| *s).max().unwrap();
                assert!(max_seen >= items.len() / jobs.max(1) / 8);
            }
        }
        // Degenerate inputs.
        assert!(fan_out(&[] as &[u8], 4, 1, || (), |_, _, b| *b).is_empty());
        assert_eq!(fan_out(&[7u8], 0, 0, || (), |_, _, b| *b), vec![7]);
    }

    #[test]
    fn chunking_covers_every_index() {
        for n in [1usize, 2, 3, 64, 65, 1000] {
            for jobs in [2usize, 4, 8] {
                let chunk = chunk_size(n, jobs);
                assert!((1..=64).contains(&chunk));
            }
        }
    }
}
