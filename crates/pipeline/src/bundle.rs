//! The shared, read-only preparation of a corpus run.
//!
//! Everything the paper derives from a `(Σ, transformation)` pair is
//! per-*schema*, not per-document: the compiled key index, the shred plans,
//! the propagation engines and the minimum covers they produce are the same
//! for every document of a corpus.  A [`CorpusBundle`] performs that
//! preparation exactly once and is then shared — by reference from scoped
//! worker threads, or inside an `Arc` by long-lived services — across any
//! number of documents.  Every query method takes `&self`; the bundle is
//! `Send + Sync` by construction (no interior mutability beyond the
//! `OnceLock`-cached key splits and minimum covers).
//!
//! The one piece of per-document state a worker needs that is *not*
//! read-only is a [`xmlprop_xmlpath::LabelUniverse`] to intern novel
//! document labels into while building a
//! [`xmlprop_xmltree::DocIndex`].  Ids are append-only, so each worker
//! clones the bundle's universe once ([`CorpusBundle::worker_universe`])
//! and extends its private copy: every label the compiled keys and plans
//! mention keeps its id in every clone, and labels only a document uses
//! never influence any output (relations hold value strings, violations
//! hold node ids and names), which is what makes the parallel run
//! bit-for-bit equal to the sequential one.

use crate::catalog::Catalog;
use crate::run::{CorpusOptions, DocOutcome};
use crate::state::RequestScratch;
use std::sync::OnceLock;
use xmlprop_core::PropagationEngine;
use xmlprop_reldb::{Database, Fd};
use xmlprop_xmlkeys::{KeyIndex, KeySet};
use xmlprop_xmlpath::LabelUniverse;
use xmlprop_xmltransform::{Transformation, TransformationPlan};
use xmlprop_xmltree::{DocIndex, Document};

/// One rule's propagated minimum cover, by relation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleCover {
    /// The relation the rule populates.
    pub relation: String,
    /// The minimum cover of the FDs propagated onto it.
    pub cover: Vec<Fd>,
}

/// The prepared, shareable form of a `(Σ, transformation)` pair; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct CorpusBundle {
    sigma: KeySet,
    transformation: Transformation,
    keys: KeyIndex,
    universe: LabelUniverse,
    plan: TransformationPlan,
    engines: Vec<PropagationEngine>,
    /// The engines' minimum covers, computed on first use (a
    /// validation-only bundle never pays for them).
    covers: OnceLock<Vec<RuleCover>>,
    /// The query planner's catalog of the covers, built on first use.
    catalog: OnceLock<Catalog>,
}

impl CorpusBundle {
    /// Prepares a key set and a transformation for corpus-scale reuse:
    /// compiles Σ into a [`KeyIndex`], every rule into a [`TransformationPlan`]
    /// against one shared label universe, and one [`PropagationEngine`] per
    /// rule.  Spelled like [`xmlprop_xmlkeys::KeySet::prepare`],
    /// [`xmlprop_xmltransform::Transformation::prepare`] and
    /// [`PropagationEngine::prepare`]: every compiled layer names its
    /// one-time preparation the same way.
    pub fn prepare(sigma: KeySet, transformation: Transformation) -> Self {
        let keys = sigma.prepare();
        // The plan's universe *extends* the key index's universe, so one
        // `DocIndex` per document serves both shredding and validation.
        let mut universe = keys.universe().clone();
        let plan = transformation.prepare(&mut universe);
        let engines = transformation
            .rules()
            .iter()
            .map(|rule| PropagationEngine::prepare(&sigma, rule))
            .collect();
        CorpusBundle {
            sigma,
            transformation,
            keys,
            universe,
            plan,
            engines,
            covers: OnceLock::new(),
            catalog: OnceLock::new(),
        }
    }

    /// A validation-only bundle (no transformation): batch key checking.
    pub fn for_validation(sigma: KeySet) -> Self {
        CorpusBundle::prepare(sigma, Transformation::new(Vec::new()))
    }

    /// A shredding-only bundle (empty Σ): batch document-to-relations
    /// mapping.
    pub fn for_shredding(transformation: Transformation) -> Self {
        CorpusBundle::prepare(KeySet::new(), transformation)
    }

    /// The key set Σ the bundle was prepared from.
    pub fn sigma(&self) -> &KeySet {
        &self.sigma
    }

    /// The transformation the bundle was prepared from.
    pub fn transformation(&self) -> &Transformation {
        &self.transformation
    }

    /// The prepared key index (compiled paths, assured-attribute index).
    pub fn keys(&self) -> &KeyIndex {
        &self.keys
    }

    /// The prepared shred plans, in rule order.
    pub fn plan(&self) -> &TransformationPlan {
        &self.plan
    }

    /// The propagation engines, in rule order.
    pub fn engines(&self) -> &[PropagationEngine] {
        &self.engines
    }

    /// The shared label universe the keys and plans are compiled against.
    pub fn universe(&self) -> &LabelUniverse {
        &self.universe
    }

    /// A private copy of the shared universe for one worker thread to
    /// extend while indexing documents (ids are append-only; see the module
    /// docs for why clones do not affect outputs).
    pub fn worker_universe(&self) -> LabelUniverse {
        self.universe.clone()
    }

    /// Processes one document against the bundle's prepared state: builds
    /// a [`xmlprop_xmltree::DocIndex`] in the scratch's private universe,
    /// then shreds and/or validates per `options`.  This is the
    /// per-request unit both the corpus runner's workers and the resident
    /// server's connection handlers drive; everything touched through
    /// `&self` is read-only, everything mutable lives in `scratch`.
    pub fn process(
        &self,
        doc: &Document,
        scratch: &mut RequestScratch,
        options: &CorpusOptions,
    ) -> DocOutcome {
        if !options.shred && !options.validate {
            // Covers are document-independent; with both per-document tasks
            // off there is nothing to index.
            return DocOutcome {
                database: Database::new(),
                violations: Vec::new(),
                nodes: doc.len(),
                tuples: 0,
                peak_open_bindings: 0,
            };
        }
        let index = scratch.index_document(doc);
        let database = if options.shred {
            self.shred_indexed(doc, &index, scratch, |_| true)
        } else {
            Database::new()
        };
        let violations = if options.validate {
            self.keys.violations(doc, &index)
        } else {
            Vec::new()
        };
        let tuples = database.relations().map(|r| r.len()).sum();
        DocOutcome {
            database,
            violations,
            nodes: doc.len(),
            tuples,
            peak_open_bindings: 0,
        }
    }

    /// Shreds one document through every plan whose relation name
    /// `wanted` accepts, in plan order (an unknown name selects none;
    /// callers validate names first for the shared diagnostic).
    pub fn shred(
        &self,
        doc: &Document,
        scratch: &mut RequestScratch,
        wanted: impl Fn(&str) -> bool,
    ) -> Database {
        let index = scratch.index_document(doc);
        self.shred_indexed(doc, &index, scratch, wanted)
    }

    /// Runs the plans `wanted` selects over an indexed document.
    fn shred_indexed(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut RequestScratch,
        wanted: impl Fn(&str) -> bool,
    ) -> Database {
        // A fresh index clears the value() memo; evaluation buffers survive.
        let mut database = Database::new();
        for plan in self.plan.plans() {
            if wanted(plan.schema().name()) {
                database.insert(plan.shred_with(doc, index, scratch.shred_scratch()));
            }
        }
        database
    }

    /// The propagated minimum cover of every rule, in rule order — the
    /// corpus-level (document-independent) output of the paper's
    /// `minimumCover` algorithm.  Computed once per bundle, on first use;
    /// every later call (the `cover` and `query` renderers, corpus runs)
    /// reads the same covers.
    pub fn covers(&self) -> &[RuleCover] {
        self.covers.get_or_init(|| {
            self.engines
                .iter()
                .map(|engine| RuleCover {
                    relation: engine.rule().schema().name().to_string(),
                    cover: engine.minimum_cover(),
                })
                .collect()
        })
    }

    /// The query planner's catalog: every rule's relation schema with its
    /// propagated minimum cover ([`CorpusBundle::covers`]).  Built once per
    /// bundle, on first use, so a query plans without re-interning covers.
    pub fn catalog(&self) -> &Catalog {
        self.catalog.get_or_init(|| {
            let mut catalog = Catalog::new();
            for (engine, rule) in self.engines.iter().zip(self.covers()) {
                catalog.add_relation(engine.rule().schema().clone(), &rule.cover);
            }
            catalog
        })
    }
}
