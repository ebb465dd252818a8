//! The prepared propagation engine: one [`KeyIndex`] + the rule's table
//! tree in compiled form, reused across an entire grid of candidate FDs.
//!
//! The free functions of this crate ([`crate::propagation`],
//! [`crate::minimum_cover`], …) answer one question per call, recompiling
//! the key set and the rule's tree paths each time.  A
//! [`PropagationEngine`] does that preparation once per `(Σ, rule)` pair:
//!
//! * Σ is prepared into a [`KeyIndex`] (compiled context/target/absolute
//!   paths, precompiled target-to-context splits, assured-attribute index);
//! * the rule's [`xmlprop_xmltransform::TableTree`], built once with the
//!   rule, numbers the variables; by that [`VarId`], every variable's
//!   position `path(xr, v)` and every ancestor-relative path `path(u, v)`
//!   is compiled against the same [`xmlprop_xmlpath::LabelUniverse`], so
//!   the Fig. 5 walk and the Section 5 transitive-key bookkeeping probe the
//!   key index with ready-made expressions and no per-probe path
//!   construction;
//! * per-variable attribute edges (which fields they populate, whether
//!   their existence is assured by Σ) are resolved up front for the
//!   `Ycheck` analysis and the `GminimumCover` non-null condition.
//!
//! The engine exposes the paper's algorithms as methods —
//! [`PropagationEngine::propagation`],
//! [`PropagationEngine::minimum_cover`], the batch
//! [`PropagationEngine::propagate_all`] — and the free functions are
//! one-shot facades over it.

use crate::mincover::CoverStats;
use crate::propagation::PropagationOutcome;
use std::collections::HashSet;
use xmlprop_reldb::intern::minimize_interned;
use xmlprop_reldb::{AttrSet, AttrUniverse, Fd, IFd};
use xmlprop_xmlkeys::{KeyIndex, KeySet};
use xmlprop_xmlpath::{CompiledExpr, LabelId};
use xmlprop_xmltransform::{TableRule, VarId};

/// One table-tree variable in compiled form, at its [`VarId`] index.
#[derive(Debug, Clone)]
struct VarData {
    /// The ancestors from the root down to this variable (inclusive);
    /// `ancestors[d]` is the ancestor at depth `d`.
    ancestors: Vec<VarId>,
    /// The compiled position `path(xr, v)`.
    position: CompiledExpr,
    /// Parallel to `ancestors`: the compiled relative path
    /// `path(ancestors[d], v)` (the last entry is `ε`).
    rel_from_ancestor: Vec<CompiledExpr>,
    /// Children reached through a single `@attr` edge that populate a
    /// field: `(attribute id, field name)`, sorted by id (ties keep
    /// field-rule order).
    attr_children: Vec<(LabelId, String)>,
    /// If this variable's own edge is a single `@attr` label: its id.
    edge_attr: Option<LabelId>,
}

/// A prepared `(Σ, rule)` pair answering propagation and minimum-cover
/// questions from precompiled state; see the module docs.
#[derive(Debug, Clone)]
pub struct PropagationEngine {
    sigma: KeySet,
    rule: TableRule,
    keys: KeyIndex,
    /// By [`VarId`].
    vars: Vec<VarData>,
}

impl PropagationEngine {
    /// Prepares Σ and the rule's table tree for repeated queries.  Spelled
    /// like [`xmlprop_xmlkeys::KeySet::prepare`] and
    /// [`xmlprop_xmltransform::Transformation::prepare`]: every compiled
    /// layer names its one-time preparation the same way.
    pub fn prepare(sigma: &KeySet, rule: &TableRule) -> Self {
        Self::from_owned(sigma.clone(), rule.clone())
    }

    /// Like [`PropagationEngine::prepare`] but takes ownership of the key set
    /// and rule, avoiding the clones.
    pub fn from_owned(sigma: KeySet, rule: TableRule) -> Self {
        let mut keys = KeyIndex::new(&sigma);
        let tree = rule.table_tree();

        // Compile each variable's position and ancestor-relative paths
        // incrementally: `path(u, v) = path(u, parent(v)) ⋅ edge(v)`, all at
        // the interned-atom level — only the edge paths themselves go
        // through string interning (parents precede children in `VarId`
        // order, so the parent's data is already built).
        let mut vars: Vec<VarData> = Vec::with_capacity(tree.vars().len());
        for v in tree.vars() {
            let (ancestors, position, rel_from_ancestor) = match tree.parent(v) {
                None => (
                    vec![v],
                    CompiledExpr::epsilon(),
                    vec![CompiledExpr::epsilon()],
                ),
                Some(parent) => {
                    let edge = keys.compile(tree.edge(v));
                    let parent = &vars[parent.index()];
                    let mut ancestors = parent.ancestors.clone();
                    ancestors.push(v);
                    let mut rel: Vec<CompiledExpr> = parent
                        .rel_from_ancestor
                        .iter()
                        .map(|r| r.concat(&edge))
                        .collect();
                    rel.push(CompiledExpr::epsilon());
                    (ancestors, parent.position.concat(&edge), rel)
                }
            };
            let edge_attr = match tree.edge(v).atoms() {
                [xmlprop_xmlpath::Atom::Label(label)] if label.starts_with('@') => {
                    Some(keys.intern_label(label))
                }
                _ => None,
            };
            vars.push(VarData {
                ancestors,
                position,
                rel_from_ancestor,
                attr_children: Vec::new(),
                edge_attr,
            });
        }

        // Attribute edges populating fields, grouped under the parent.
        for (fr, &v) in rule.field_rules().iter().zip(tree.field_vars()) {
            let (Some(attr), Some(parent)) = (vars[v.index()].edge_attr, tree.parent(v)) else {
                continue;
            };
            vars[parent.index()]
                .attr_children
                .push((attr, fr.field.clone()));
        }
        for v in &mut vars {
            v.attr_children.sort_by_key(|(id, _)| *id);
        }

        PropagationEngine {
            sigma,
            rule,
            keys,
            vars,
        }
    }

    /// The key set this engine was prepared for.
    pub fn sigma(&self) -> &KeySet {
        &self.sigma
    }

    /// The table rule this engine was prepared for.
    pub fn rule(&self) -> &TableRule {
        &self.rule
    }

    /// The prepared key index (for callers issuing their own implication
    /// probes against the same Σ).
    pub fn key_index(&self) -> &KeyIndex {
        &self.keys
    }

    /// Checks whether the FD `fd` over the prepared rule is propagated from
    /// the prepared keys: `Σ ⊨_σ fd` — the method form of
    /// [`crate::propagation`].
    pub fn propagation(&self, fd: &Fd) -> bool {
        let x_fields: Vec<&str> = fd.lhs().iter().map(String::as_str).collect();
        fd.rhs()
            .iter()
            .all(|a| self.propagation_single(&x_fields, a).propagated)
    }

    /// Like [`PropagationEngine::propagation`] but returns one
    /// [`PropagationOutcome`] per right-hand-side attribute.
    pub fn propagation_explained(&self, fd: &Fd) -> Vec<PropagationOutcome> {
        let x_fields: Vec<&str> = fd.lhs().iter().map(String::as_str).collect();
        fd.rhs()
            .iter()
            .map(|a| self.propagation_single(&x_fields, a))
            .collect()
    }

    /// Batch entry point: one verdict per FD, reusing the prepared state
    /// across the whole grid.
    pub fn propagate_all(&self, fds: &[Fd]) -> Vec<bool> {
        fds.iter().map(|fd| self.propagation(fd)).collect()
    }

    /// Propagation for callers that already hold the left-hand side as a
    /// sorted, duplicate-free field slice (the `naive` enumeration, the
    /// consistency checker): avoids materializing an [`Fd`] per probe.
    pub fn propagation_fields(&self, x_fields: &[&str], a_field: &str) -> bool {
        self.propagation_single(x_fields, a_field).propagated
    }

    /// The Fig. 5 algorithm for a single FD `X → A`, over prepared state.
    ///
    /// See `crate::propagation` for the reconstruction notes; this is the
    /// same walk with every path precompiled and every implication probe
    /// answered by the key index.
    fn propagation_single(&self, x_fields: &[&str], a_field: &str) -> PropagationOutcome {
        debug_assert!(
            x_fields.windows(2).all(|w| w[0] < w[1]),
            "x_fields must be sorted and duplicate-free"
        );

        // Every mentioned field must exist in the schema.
        let Some(x_var) = self.rule.field_var(a_field) else {
            return PropagationOutcome::rejected(a_field, x_fields);
        };
        if x_fields.iter().any(|f| self.rule.field_var(f).is_none()) {
            return PropagationOutcome::rejected(a_field, x_fields);
        }
        let tree = self.rule.table_tree();
        let xv = &self.vars[x_var.index()];

        // Fields of X that still need an existence guarantee.
        let mut ycheck_pending: Vec<bool> = x_fields.iter().map(|f| *f != a_field).collect();
        let mut ycheck_len = ycheck_pending.iter().filter(|p| **p).count();

        // A trivial FD (A ∈ X) needs no key.
        let mut key_found = x_fields.contains(&a_field);
        let mut keyed_ancestor = if key_found {
            Some(tree.name(x_var).to_string())
        } else {
            None
        };

        // The keyed context, as a depth into x's ancestor chain.
        let mut context_depth = 0usize;

        // Scratch for the β attribute sets (the only per-probe allocation).
        let mut beta: Vec<(LabelId, &str)> = Vec::new();
        let mut beta_ids: Vec<LabelId> = Vec::new();

        // Walk the proper ancestors of x top-down.
        for (depth, &t) in xv.ancestors[..xv.ancestors.len() - 1].iter().enumerate() {
            let tv = &self.vars[t.index()];

            // The attributes of `t` that populate fields of X (ids sorted,
            // deduplicated; a duplicated attribute keeps every field).
            beta.clear();
            beta_ids.clear();
            for (id, field) in &tv.attr_children {
                if x_fields.binary_search(&field.as_str()).is_ok() {
                    beta.push((*id, field.as_str()));
                    if beta_ids.last() != Some(id) {
                        beta_ids.push(*id);
                    }
                }
            }

            if !key_found {
                // Is `t` keyed (by β) relative to the current keyed context?
                let context_position = &self.vars[xv.ancestors[context_depth].index()].position;
                let relative = &tv.rel_from_ancestor[context_depth];
                if self
                    .keys
                    .implies_parts(context_position, relative, &tv.position, &beta_ids)
                {
                    // Move the context down, then test uniqueness of x
                    // under the (now keyed) target.
                    context_depth = depth;
                    let to_x = &xv.rel_from_ancestor[depth];
                    if self
                        .keys
                        .node_unique_under(&tv.position, to_x, &xv.position)
                    {
                        key_found = true;
                        keyed_ancestor = Some(tree.name(t).to_string());
                    }
                }
            }

            // Existence analysis for the Ycheck bookkeeping.
            if !beta.is_empty() && self.keys.attributes_assured(&tv.position, &beta_ids) {
                for (_, field) in &beta {
                    if let Ok(i) = x_fields.binary_search(field) {
                        if ycheck_pending[i] {
                            ycheck_pending[i] = false;
                            ycheck_len -= 1;
                        }
                    }
                }
            }
        }

        PropagationOutcome {
            field: a_field.to_string(),
            propagated: key_found && ycheck_len == 0,
            keyed_ancestor,
            unresolved_fields: x_fields
                .iter()
                .zip(&ycheck_pending)
                .filter(|(_, pending)| **pending)
                .map(|(f, _)| f.to_string())
                .collect(),
        }
    }

    /// Computes a minimum cover of all the FDs propagated onto the prepared
    /// rule — the method form of [`crate::minimum_cover`].
    pub fn minimum_cover(&self) -> Vec<Fd> {
        self.minimum_cover_with_stats().0
    }

    /// Like [`PropagationEngine::minimum_cover`] but also reports
    /// [`CoverStats`].  Same algorithm as the facade (see
    /// `crate::minimum_cover` for the reconstruction notes); every
    /// implication probe runs against the prepared key index.
    pub fn minimum_cover_with_stats(&self) -> (Vec<Fd>, CoverStats) {
        let tree = self.rule.table_tree();
        let mut stats = CoverStats::default();

        // Intern the universal relation's fields once (sorted, matching the
        // historical string-set ordering for canonical-key tie-breaking).
        let universe = AttrUniverse::from_names(
            self.rule
                .schema()
                .attributes()
                .iter()
                .map(String::as_str)
                .chain(self.rule.field_rules().iter().map(|fr| fr.field.as_str())),
        );

        // Canonical transitive key of each keyed variable, by `VarId`.
        let mut canonical: Vec<Option<AttrSet>> = vec![None; self.vars.len()];
        canonical[VarId::ROOT.index()] = Some(AttrSet::new());

        let mut fds: Vec<IFd> = Vec::new();

        // Top-down traversal (parents before children).
        for (v, vd) in tree.vars().zip(&self.vars).skip(1) {
            let mut candidates: Vec<AttrSet> = Vec::new();
            for (depth, &u) in vd.ancestors[..vd.ancestors.len() - 1].iter().enumerate() {
                let Some(k_u) = canonical[u.index()].clone() else {
                    continue;
                };
                let u_position = &self.vars[u.index()].position;
                let relative = &vd.rel_from_ancestor[depth];

                // The "unique under" step: v inherits u's key outright.
                stats.implication_calls += 1;
                if self
                    .keys
                    .node_unique_under(u_position, relative, &vd.position)
                {
                    candidates.push(k_u.clone());
                }

                // One key of Σ per level, restricted to attributes that are
                // mapped to fields of the universal relation on `v`.
                if vd.attr_children.is_empty() {
                    continue;
                }
                for key in self.keys.keys() {
                    if key.attrs().is_empty() {
                        continue; // covered by the unique-under step
                    }
                    let Some(fields) = self.fields_for_attrs(&universe, vd, key.attrs()) else {
                        continue;
                    };
                    stats.implication_calls += 1;
                    if self
                        .keys
                        .implies_parts(u_position, relative, &vd.position, key.attrs())
                    {
                        let mut k_v = k_u.clone();
                        k_v.union_with(&fields);
                        candidates.push(k_v);
                    }
                }
            }

            if candidates.is_empty() {
                continue;
            }
            candidates.sort_by_cached_key(|k| universe.names_key(k));
            candidates.dedup();
            let chosen = candidates[0].clone();

            // Equivalence FDs between the canonical key and every
            // alternative, in both directions.
            for alt in &candidates[1..] {
                for field in alt.difference(&chosen).iter() {
                    fds.push(IFd::new(chosen.clone(), std::iter::once(field).collect()));
                }
                for field in chosen.difference(alt).iter() {
                    fds.push(IFd::new(alt.clone(), std::iter::once(field).collect()));
                }
            }

            canonical[v.index()] = Some(chosen);
        }

        // FD generation: for each keyed variable `v` and each field `A`
        // defined by a variable `w` unique under `v`, emit K(v) → A.  Both
        // loops run in variable-name order, the order the cover has always
        // been generated in.
        let mut keyed: Vec<(VarId, AttrSet)> = tree
            .vars()
            .zip(canonical)
            .filter_map(|(v, key)| Some((v, key?)))
            .collect();
        keyed.sort_unstable_by_key(|(v, _)| tree.name(*v));
        stats.keyed_variables = keyed.len();
        let mut field_of_var: Vec<(VarId, &str)> = tree
            .field_vars()
            .iter()
            .zip(self.rule.field_rules())
            .map(|(&w, fr)| (w, fr.field.as_str()))
            .collect();
        field_of_var.sort_unstable_by_key(|(w, _)| tree.name(*w));
        // The FDs so far; equivalence FDs may repeat, generated ones may not.
        let mut seen: HashSet<IFd> = fds.iter().cloned().collect();
        for (v, key_fields) in &keyed {
            let vd = &self.vars[v.index()];
            let v_depth = vd.ancestors.len() - 1;
            for &(w, field) in &field_of_var {
                let wd = &self.vars[w.index()];
                if wd.ancestors.get(v_depth) != Some(v) {
                    continue; // v is not an ancestor-or-self of w
                }
                let field_id = universe
                    .lookup(field)
                    .expect("every rule field is interned");
                if key_fields.contains(field_id) {
                    continue; // trivial
                }
                let to_w = &wd.rel_from_ancestor[v_depth];
                stats.implication_calls += 1;
                if self
                    .keys
                    .node_unique_under(&vd.position, to_w, &wd.position)
                {
                    let fd = IFd::new(key_fields.clone(), std::iter::once(field_id).collect());
                    if seen.insert(fd.clone()) {
                        fds.push(fd);
                    }
                }
            }
        }

        stats.generated_fds = fds.len();
        let cover: Vec<Fd> = minimize_interned(universe.len(), &fds)
            .iter()
            .map(|fd| universe.extern_fd(fd))
            .collect();
        stats.cover_size = cover.len();
        (cover, stats)
    }

    /// Maps every attribute of `attrs` to its (interned) field on this
    /// variable; `None` if some attribute is not mapped to a field (the key
    /// is then unusable at this level).  When one attribute populates
    /// several fields, the last field rule wins (matching the historical
    /// map-overwrite behavior).
    fn fields_for_attrs(
        &self,
        universe: &AttrUniverse,
        vd: &VarData,
        attrs: &[LabelId],
    ) -> Option<AttrSet> {
        attrs
            .iter()
            .map(|a| {
                vd.attr_children
                    .iter()
                    .rev()
                    .find(|(id, _)| id == a)
                    .and_then(|(_, field)| universe.lookup(field))
            })
            .collect()
    }

    /// For every variable: true if its edge is a single attribute whose
    /// existence is assured by Σ at the parent position — the
    /// probe-independent half of the `GminimumCover` non-null analysis.
    /// Computed on demand (one assured probe per attribute edge) so plain
    /// propagation engines never pay for it; `GMinimumCover` calls it once
    /// at construction.
    pub(crate) fn edge_attr_assured_map(&self) -> Vec<bool> {
        let tree = self.rule.table_tree();
        tree.vars()
            .map(|v| match (self.vars[v.index()].edge_attr, tree.parent(v)) {
                (Some(attr), Some(parent)) => self
                    .keys
                    .attribute_assured(&self.vars[parent.index()].position, attr),
                _ => false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_xmlkeys::example_2_1_keys;
    use xmlprop_xmltransform::sample::{example_2_4_transformation, example_3_1_universal};

    fn fd(s: &str) -> Fd {
        Fd::parse(s).unwrap()
    }

    #[test]
    fn engine_answers_the_example_4_2_probes() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let engine = PropagationEngine::prepare(&sigma, t.rule("book").unwrap());
        assert!(engine.propagation(&fd("isbn -> contact")));
        assert!(!engine.propagation(&fd("title -> isbn")));
        let outcome = &engine.propagation_explained(&fd("isbn -> contact"))[0];
        assert!(outcome.propagated);
        assert_eq!(outcome.keyed_ancestor.as_deref(), Some("xa"));
        assert_eq!(engine.rule().schema().name(), "book");
        assert_eq!(engine.sigma().len(), 7);
        assert_eq!(engine.key_index().len(), 7);
    }

    #[test]
    fn batch_propagation_matches_single_calls() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let engine = PropagationEngine::prepare(&sigma, &u);
        let probes = vec![
            fd("bookIsbn -> bookTitle"),
            fd("bookIsbn -> bookAuthor"),
            fd("bookIsbn, chapNum -> chapName"),
            fd("chapNum -> chapName"),
        ];
        let batch = engine.propagate_all(&probes);
        let single: Vec<bool> = probes.iter().map(|f| engine.propagation(f)).collect();
        assert_eq!(batch, single);
        assert_eq!(batch, vec![true, false, true, false]);
    }

    #[test]
    fn engine_minimum_cover_matches_example_3_1() {
        let sigma = example_2_1_keys();
        let u = example_3_1_universal();
        let engine = PropagationEngine::prepare(&sigma, &u);
        let (cover, stats) = engine.minimum_cover_with_stats();
        assert_eq!(cover.len(), 4);
        assert_eq!(stats.cover_size, 4);
        assert!(stats.generated_fds >= 4);
        assert!(stats.keyed_variables >= 4);
        assert!(stats.implication_calls > 0);
    }
}
