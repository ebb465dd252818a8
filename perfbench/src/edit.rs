//! `edit_stream`: writes beside the reads of the other workloads.
//!
//! One ~177k-node document (`generate(15, 5, 10)`, branching 8) is opened
//! once with `open_incremental`; a fixed seeded script then goes through
//! `CorpusBundle::apply_delta`: 80% `SetText` (on an identifier attribute,
//! half the time copying a sibling's identifier so a violation appears,
//! later restored to a fresh value so it clears), 10% `InsertSubtree` of a
//! leaf entity, 10% `RemoveSubtree` of one.  The script's length is fixed
//! per run, so arena growth is part of what is measured.  The maintained
//! state is compared with a from-scratch index, validation and shred at
//! each quarter of the script.
//!
//! The traced run replays the script through the public pieces
//! `Document::apply`, `DocIndex::apply_delta`,
//! `IncrementalValidator::apply` and `IncrementalShredder::apply`.

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{inputs, per, trace_twins, Bench, Metric, Params, Scale, Tally, Timed};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;
use xmlprop_pipeline::{CorpusBundle, IncrementalDocument};
use xmlprop_workload::{generate_document_with_report, DocConfig, Workload};
use xmlprop_xmlkeys::IncrementalValidator;
use xmlprop_xmltransform::IncrementalShredder;
use xmlprop_xmltree::{AppliedDelta, Delta, DocIndex, Document, Fragment, NodeId, NodeKind};

/// Script edits per second of `--seconds` at full scale (about the rate
/// this workload sustains on a 2-core host), with a floor of 1,000 so the
/// p99 is always supported.
const EDITS_PER_SECOND: f64 = 120.0;
const MIN_EDITS: usize = 1_000;
/// Throughput samples per script: the reported rate is the median rate of
/// this many equal windows of edits.
const RATE_WINDOWS: usize = 40;

const KINDS: [&str; 3] = ["settext", "insert", "remove"];
const INDEX_DELTA: [&str; 3] = [
    "xmltree.index_delta.settext",
    "xmltree.index_delta.insert",
    "xmltree.index_delta.remove",
];

/// The per-layer metrics of the traced run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("xmltree.apply_us", "us"),
    ("xmlkeys.incr_validate_us", "us"),
    ("xmltransform.incr_shred_us", "us"),
    ("xmltree.index_delta_us.settext", "us"),
    ("xmltree.index_delta_us.insert", "us"),
    ("xmltree.index_delta_us.remove", "us"),
    ("edit.relation_deltas", "count"),
    ("edit.arena_nodes_end", "count"),
    ("edit_stream.unattributed_ms", "ms"),
    ("edit_stream.trace_overhead_ms", "ms"),
];

fn kind(delta: &Delta) -> usize {
    match delta {
        Delta::SetText { .. } => 0,
        Delta::InsertSubtree { .. } => 1,
        Delta::RemoveSubtree { .. } => 2,
    }
}

/// The `edit_stream` workload; see the module docs.
#[derive(Debug)]
pub struct EditStream {
    bundle: CorpusBundle,
    doc: Document,
    state: Option<IncrementalDocument>,
    /// The edit script (public so a self-test can corrupt it).
    pub script: Vec<Delta>,
}

/// Builds the seeded edit script by applying it to a copy of `doc`, so
/// every edit names a live node of the document as it will be then.
fn build_script(w: &Workload, doc: &Document, len: usize, rng: &mut StdRng) -> Vec<Delta> {
    let deepest = w.config.depth - 1;
    let mut sim = doc.clone();
    let mut leaves = Vec::new();
    let mut entities: Vec<Vec<NodeId>> = vec![Vec::new(); w.config.depth];
    let classify = |sim: &Document,
                    node: NodeId,
                    leaves: &mut Vec<NodeId>,
                    entities: &mut Vec<Vec<NodeId>>| {
        match sim.kind(node) {
            NodeKind::Attribute | NodeKind::Text => leaves.push(node),
            NodeKind::Element => {
                if let Some(level) = w.level_labels.iter().position(|l| l == sim.label(node)) {
                    entities[level].push(node);
                }
            }
        }
    };
    for node in sim.all_nodes() {
        classify(&sim, node, &mut leaves, &mut entities);
    }
    let mut duplicated: Vec<NodeId> = Vec::new();
    let mut fresh = 0usize;
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        fresh += 1;
        let delta = match rng.gen_range(0..10) {
            0..=7 => {
                if !duplicated.is_empty() && rng.gen_bool(0.3) {
                    // Clear a violation made earlier.
                    let node = duplicated.swap_remove(rng.gen_range(0..duplicated.len()));
                    Some(Delta::SetText {
                        node,
                        text: format!("r{fresh}"),
                    })
                } else {
                    leaves
                        .choose(rng)
                        .copied()
                        .filter(|&n| sim.contains(n))
                        .map(
                            |node| match sibling_id(w, &sim, node).filter(|_| rng.gen_bool(0.5)) {
                                Some(copy) => {
                                    duplicated.push(node);
                                    Delta::SetText { node, text: copy }
                                }
                                None => Delta::SetText {
                                    node,
                                    text: format!("t{fresh}"),
                                },
                            },
                        )
                }
            }
            8 => entities[deepest - 1]
                .choose(rng)
                .copied()
                .filter(|&n| sim.contains(n))
                .map(|parent| {
                    let children: Vec<NodeId> = sim.children(parent).collect();
                    let attributes = children
                        .iter()
                        .filter(|&&c| sim.kind(c) == NodeKind::Attribute)
                        .count();
                    Delta::InsertSubtree {
                        parent,
                        position: rng.gen_range(attributes..children.len() + 1),
                        fragment: Fragment::Element(leaf_entity(w, fresh)),
                    }
                }),
            _ => entities[deepest]
                .choose(rng)
                .copied()
                .filter(|&n| sim.contains(n))
                .map(|node| Delta::RemoveSubtree { node }),
        };
        let Some(delta) =
            delta.filter(|d| !matches!(d, Delta::SetText { node, .. } if !sim.contains(*node)))
        else {
            continue;
        };
        match sim.apply(&delta) {
            Ok(AppliedDelta::Insert { root, .. }) => {
                for node in sim.descendants_or_self(root) {
                    classify(&sim, node, &mut leaves, &mut entities);
                }
            }
            Ok(_) => {}
            Err(_) => continue,
        }
        script.push(delta);
    }
    script
}

/// For an identifier attribute `@id{l}` of an entity, the identifier of
/// one of its same-level siblings (setting it makes a key violation).
fn sibling_id(w: &Workload, sim: &Document, node: NodeId) -> Option<String> {
    let label = sim.label(node);
    let level = (0..w.config.depth).find(|&l| label == format!("@{}", w.id_field(l)))?;
    let entity = sim.parent(node)?;
    let siblings: Vec<NodeId> = sim
        .element_children(sim.parent(entity)?)
        .filter(|&s| s != entity && sim.label(s) == w.level_labels[level])
        .collect();
    let sibling = *siblings.first()?;
    sim.attribute(sibling, label).map(str::to_string)
}

/// A fresh deepest-level entity with every field present, unique among
/// its siblings.
fn leaf_entity(w: &Workload, fresh: usize) -> Document {
    let level = w.config.depth - 1;
    let label = &w.level_labels[level];
    let mut xml = format!("<{label} {}=\"n{fresh}\"", w.id_field(level));
    for field in w.attr_fields_per_level[level].iter().skip(1) {
        xml.push_str(&format!(" {field}=\"v{fresh}\""));
    }
    xml.push('>');
    for field in &w.element_fields_per_level[level] {
        xml.push_str(&format!("<{field}_el>v{fresh}</{field}_el>"));
    }
    xml.push_str(&format!("</{label}>"));
    Document::parse_str(&xml).expect("generated fragment parses")
}

/// Compares a maintained index, violation set and database with a
/// from-scratch pass over `doc`.
fn matches_scratch(
    bundle: &CorpusBundle,
    doc: &Document,
    index: &DocIndex,
    violations: Vec<xmlprop_xmlkeys::Violation>,
    database: xmlprop_reldb::Database,
) -> Result<(), &'static str> {
    let mut universe = bundle.worker_universe();
    let scratch = DocIndex::build(doc, &mut universe);
    let same_index = index.len() == scratch.len()
        && (0..scratch.len() as u32).all(|pos| {
            index.node_at(pos) == scratch.node_at(pos)
                && index.subtree_end(pos) == scratch.subtree_end(pos)
                && index.kind_at(pos) == scratch.kind_at(pos)
        });
    if !same_index {
        return Err("index");
    }
    if violations != bundle.keys().violations(doc, &scratch) {
        return Err("validation");
    }
    if database != bundle.plan().shred_all(doc, &scratch) {
        return Err("shred");
    }
    Ok(())
}

impl EditStream {
    fn check_state(&self, state: &IncrementalDocument, when: &str, tally: &mut Tally) {
        let result = matches_scratch(
            &self.bundle,
            state.document(),
            state.index(),
            state.violations(),
            state.database(&self.bundle),
        );
        tally.check(result.is_ok(), || {
            format!(
                "edit_stream: maintained {} differs from scratch {when}",
                result.unwrap_err()
            )
        });
    }
}

impl Bench for EditStream {
    const NAME: &'static str = "edit_stream";

    fn setup(params: &Params) -> Self {
        let (branching, edits) = match params.scale {
            Scale::Full => (
                8,
                ((EDITS_PER_SECOND * params.seconds) as usize).max(MIN_EDITS),
            ),
            Scale::Smoke => (3, 60),
        };
        let w = inputs::schema(15, 5, 10);
        let (doc, _) = generate_document_with_report(
            &w,
            &DocConfig {
                branching,
                omission_probability: 0.1,
                seed: params.seed,
                depth: Some(5),
            },
        );
        let script = build_script(&w, &doc, edits, &mut inputs::rng(params.seed, 5));
        let bundle = inputs::bundle(&w);
        let state = bundle.open_incremental(doc.clone());
        EditStream {
            bundle,
            doc,
            state: Some(state),
            script,
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        let mut counts = [0usize; 3];
        for delta in &self.script {
            counts[kind(delta)] += 1;
        }
        vec![
            ("nodes", inputs::thousands(self.doc.len())),
            ("fields/depth/keys", "15/5/10".to_string()),
            (
                "rules",
                self.bundle.transformation().rules().len().to_string(),
            ),
            (
                "script",
                format!(
                    "{} edits: {}",
                    self.script.len(),
                    KINDS
                        .iter()
                        .zip(counts)
                        .map(|(k, n)| format!("{k} {n}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ]
    }

    fn gate(&mut self, tally: &mut Tally) {
        if let Some(state) = &self.state {
            self.check_state(state, "after open_incremental", tally);
        }
    }

    fn measure(&mut self, _seconds: f64, tally: &mut Tally) -> Timed {
        let mut state = self.state.take().expect("one measured phase per set-up");
        let len = self.script.len();
        let checkpoints = [len / 4, len / 2, 3 * len / 4, len];
        let mut samples = Vec::with_capacity(len);
        let window = (len / RATE_WINDOWS).max(1);
        let mut windows = Vec::new();
        let (mut busy, mut applied) = (0.0, 0usize);
        for (i, delta) in self.script.iter().enumerate() {
            let t = Instant::now();
            let result = self.bundle.apply_delta(&mut state, delta);
            let elapsed = t.elapsed().as_secs_f64();
            busy += elapsed;
            applied += usize::from(result.is_ok());
            samples.push(if result.is_ok() {
                elapsed * 1e3
            } else {
                f64::INFINITY
            });
            tally.check(result.is_ok(), || {
                format!("edit_stream: edit {i} ({}) was refused", KINDS[kind(delta)])
            });
            if (i + 1) % window == 0 {
                windows.push(applied as f64 / busy);
                (busy, applied) = (0.0, 0);
            }
            if checkpoints.contains(&(i + 1)) {
                self.check_state(&state, &format!("after edit {}", i + 1), tally);
            }
        }
        let windows = Summary::new(windows);
        let edits_per_s = windows.p50().unwrap_or(f64::NAN);
        let latency = Summary::new(samples);
        Timed {
            throughput: edits_per_s,
            metrics: vec![
                Metric::p50("edit.p50_ms", &latency),
                Metric::p99("edit.p99_ms", &latency),
            ],
            latency: Metric::latency(&latency, "edits"),
        }
    }

    fn trace(&mut self, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, Tracer) {
        let (keys, plan) = (self.bundle.keys(), self.bundle.plan());
        let mut relation_deltas = 0usize;
        let mut arena_end = 0usize;
        let traced = trace_twins(seconds, |_, t| {
            // The whole script every pass: its length is the workload.
            t.set_op(self.script.len() as u64);
            let mut doc = t.span("xmltree.clone", |_| self.doc.clone());
            let mut universe = self.bundle.worker_universe();
            let mut index = t.span("xmltree.index_build", |_| {
                DocIndex::build(&doc, &mut universe)
            });
            let mut validator = t.span("xmlkeys.incr_open", |_| {
                IncrementalValidator::new(keys, &doc, &index)
            });
            let mut shredder = t.span("xmltransform.incr_open", |_| {
                IncrementalShredder::new(plan, &doc, &index)
            });
            relation_deltas = 0;
            for (i, delta) in self.script.iter().enumerate() {
                t.set_op(i as u64);
                let Ok(applied) = t.span("xmltree.apply", |_| doc.apply(delta)) else {
                    tally.check(false, || {
                        format!("edit_stream: traced edit {i} was refused")
                    });
                    continue;
                };
                t.span(INDEX_DELTA[kind(delta)], |_| {
                    index.apply_delta(&doc, &applied, &mut universe)
                });
                t.span("xmlkeys.incr_validate", |_| {
                    validator.apply(keys, &doc, &index, &applied)
                });
                let deltas = t.span("xmltransform.incr_shred", |_| {
                    shredder.apply(plan, &doc, &index, &applied)
                });
                relation_deltas += deltas.iter().filter(|d| !d.is_empty()).count();
            }
            t.set_op(self.script.len() as u64);
            t.span("bench.check", |_| {
                let result = matches_scratch(
                    &self.bundle,
                    &doc,
                    &index,
                    validator.violations(),
                    shredder.database(plan),
                );
                tally.check(result.is_ok(), || {
                    format!(
                        "edit_stream: replayed {} differs from scratch",
                        result.unwrap_err()
                    )
                });
            });
            arena_end = doc.arena_len();
            self.script.len()
        });
        let p = &traced.profile;
        let edits = traced.ops;
        let all = |_: u64| true;
        let stat = format!("mean self time per edit, {edits} edits");
        let mut metrics: Vec<Metric> = [
            ("xmltree.apply_us", "xmltree.apply"),
            ("xmlkeys.incr_validate_us", "xmlkeys.incr_validate"),
            ("xmltransform.incr_shred_us", "xmltransform.incr_shred"),
        ]
        .into_iter()
        .map(|(name, span)| {
            Metric::new(
                name,
                per(p.self_ns(span, all) as f64 / 1e3, edits),
                "us",
                stat.clone(),
            )
        })
        .collect();
        for (k, span) in INDEX_DELTA.iter().enumerate() {
            let n = p.count(span, all);
            metrics.push(Metric::new(
                format!("xmltree.index_delta_us.{}", KINDS[k]),
                per(p.self_ns(span, all) as f64 / 1e3, n),
                "us",
                format!("mean self time per {} edit, {n} edits", KINDS[k]),
            ));
        }
        metrics.push(Metric::new(
            "edit.relation_deltas",
            relation_deltas as f64,
            "count",
            "non-empty, over the script",
        ));
        metrics.push(Metric::new(
            "edit.arena_nodes_end",
            arena_end as f64,
            "count",
            "arena size after the script",
        ));
        metrics.extend(traced.accounting(Self::NAME));
        (metrics, traced.tracer)
    }
}
