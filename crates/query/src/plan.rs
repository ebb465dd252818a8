//! Catalog, binder and key-aware optimizer.
//!
//! Binding resolves every attribute reference of a parsed [`Query`] against
//! a [`Catalog`] of relation schemas annotated with their propagated FD
//! covers, producing a [`Plan`] over *combined positions*: the row a query
//! manipulates is the concatenation of the base relation's attributes with
//! each joined relation's attributes, in source order.
//!
//! The optimizer consumes the propagated constraints through the same
//! interned [`FdIndex`] the refinement layer uses:
//!
//! - **Key-lookup joins.** A `join r on …` whose right-hand attributes form
//!   a key of `r` under `r`'s propagated cover (their closure covers the
//!   whole schema) executes as a hash lookup against a keyed table instead
//!   of a nested-loop scan.
//! - **Dedup elision.** The engine has set semantics (inputs are
//!   deduplicated on load, outputs are duplicate-free). A projection whose
//!   kept positions functionally determine the entire combined row — under
//!   the per-relation covers plus the join equalities — cannot introduce
//!   duplicates, so the output dedup pass is skipped.
//!
//! Both rewrites trust the catalog's FDs. For databases shredded from
//! documents that satisfy the source key set this is exactly the paper's
//! propagation guarantee; feeding FD-violating data to an optimized plan
//! voids the dedup elision (the keyed join stays correct: its buckets keep
//! every matching row).

use crate::syntax::{AttrRef, Query, Select};
use std::fmt::Write as _;
pub use xmlprop_pipeline::Catalog;
use xmlprop_pipeline::Error;
use xmlprop_reldb::{AttrId, AttrSet, FdIndex, IFd};

/// One relation's slice of the combined row.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub(crate) relation: String,
    pub(crate) offset: usize,
    pub(crate) arity: usize,
}

/// How a join step finds its matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Hash lookup against a table keyed on the equated right-hand
    /// attributes (chosen when they form a propagated key).
    KeyLookup,
    /// Nested-loop scan of the right relation.
    Scan,
}

/// One bound join step.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// The joined relation.
    pub(crate) relation: String,
    /// Equated pairs: (combined position on the left, attribute index in
    /// the joined relation).
    pub(crate) on: Vec<(usize, usize)>,
    /// Scan or key lookup.
    pub kind: JoinKind,
    /// The condition as written, for [`Plan::describe`].
    pub(crate) on_display: Vec<(String, String)>,
}

/// One bound `where` conjunct.
#[derive(Debug, Clone)]
pub(crate) struct FilterStep {
    pub(crate) position: usize,
    pub(crate) value: String,
    pub(crate) display: String,
}

/// One output column.
#[derive(Debug, Clone)]
pub(crate) struct OutputColumn {
    pub(crate) name: String,
    pub(crate) position: usize,
}

/// A bound, optimized (or deliberately naive) execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) blocks: Vec<Block>,
    /// Join steps, one per `join` clause.
    pub joins: Vec<JoinStep>,
    pub(crate) filters: Vec<FilterStep>,
    pub(crate) projection: Vec<OutputColumn>,
    /// Whether the executor must deduplicate projected rows.
    pub dedup: bool,
}

impl Plan {
    /// A one-line structural description of the plan, stable across runs:
    ///
    /// ```text
    /// scan U; join chapter on bookIsbn = inBook and chapNum = number \
    /// [key lookup]; where bookTitle = 'XML'; project bookIsbn [distinct]
    /// ```
    ///
    /// `[unique]` on the projection marks an elided dedup pass.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        write!(out, "scan {}", self.blocks[0].relation).expect("String write");
        for join in &self.joins {
            write!(out, "; join {} on ", join.relation).expect("String write");
            for (i, (l, r)) in join.on_display.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                write!(out, "{l} = {r}").expect("String write");
            }
            let kind = match join.kind {
                JoinKind::KeyLookup => "key lookup",
                JoinKind::Scan => "scan",
            };
            write!(out, " [{kind}]").expect("String write");
        }
        if !self.filters.is_empty() {
            out.push_str("; where ");
            for (i, f) in self.filters.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                write!(out, "{} = '{}'", f.display, f.value.replace('\'', "''"))
                    .expect("String write");
            }
        }
        out.push_str("; project ");
        if self.projection.is_empty() {
            out.push_str("<none>");
        } else {
            for (i, c) in self.projection.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.name);
            }
        }
        out.push_str(if self.dedup {
            " [distinct]"
        } else {
            " [unique]"
        });
        out
    }
}

/// Binds and optimizes `query` against `catalog` (key-lookup joins, dedup
/// elision). Unknown relations map to the `relation` wire code, every other
/// binding failure to `parse`.
pub fn plan(query: &Query, catalog: &Catalog) -> Result<Plan, Error> {
    plan_with(query, catalog, true)
}

/// Binds `query` without the key-aware rewrites: every join is a
/// nested-loop scan and the output is always deduplicated. The baseline the
/// `query` benchmark (and the equivalence tests) compare against.
pub fn plan_naive(query: &Query, catalog: &Catalog) -> Result<Plan, Error> {
    plan_with(query, catalog, false)
}

fn bind_error(message: String) -> Error {
    Error::parse("query", message)
}

/// Resolves `attr` to a combined position over `blocks`.
fn resolve(attr: &AttrRef, blocks: &[Block], catalog: &Catalog) -> Result<usize, Error> {
    match &attr.relation {
        Some(rel) => {
            let block = blocks
                .iter()
                .find(|b| b.relation == *rel)
                .ok_or_else(|| bind_error(format!("relation `{rel}` is not part of this query")))?;
            let schema = catalog
                .schema(&block.relation)
                .expect("block came from catalog");
            let idx = schema.index_of(&attr.attr).ok_or_else(|| {
                bind_error(format!("relation `{rel}` has no attribute `{}`", attr.attr))
            })?;
            Ok(block.offset + idx)
        }
        None => {
            let mut hits = Vec::new();
            for block in blocks {
                let schema = catalog
                    .schema(&block.relation)
                    .expect("block came from catalog");
                if let Some(idx) = schema.index_of(&attr.attr) {
                    hits.push((block.relation.clone(), block.offset + idx));
                }
            }
            match hits.len() {
                0 => Err(bind_error(format!("unknown attribute `{}`", attr.attr))),
                1 => Ok(hits[0].1),
                _ => {
                    let rels: Vec<String> = hits.into_iter().map(|(r, _)| r).collect();
                    Err(bind_error(format!(
                        "attribute `{}` is ambiguous (in {}); qualify it as `relation.attribute`",
                        attr.attr,
                        rels.join(", ")
                    )))
                }
            }
        }
    }
}

fn plan_with(query: &Query, catalog: &Catalog, optimize: bool) -> Result<Plan, Error> {
    // Lay out the combined row: base block, then one block per join.
    let mut blocks = Vec::new();
    let mut offset = 0usize;
    let mut push_block = |blocks: &mut Vec<Block>, rel: &str| -> Result<(), Error> {
        let entry = catalog.relation(rel)?;
        if blocks.iter().any(|b: &Block| b.relation == rel) {
            return Err(bind_error(format!(
                "relation `{rel}` appears twice; self-joins are not supported"
            )));
        }
        let arity = entry.schema().arity();
        blocks.push(Block {
            relation: rel.to_string(),
            offset,
            arity,
        });
        offset += arity;
        Ok(())
    };
    push_block(&mut blocks, &query.from)?;

    let mut joins = Vec::new();
    for clause in &query.joins {
        push_block(&mut blocks, &clause.relation)?;
        let new_block = blocks.last().expect("just pushed").clone();
        let entry = catalog.relation(&clause.relation)?;
        let mut on = Vec::new();
        let mut on_display = Vec::new();
        let mut right_attrs = Vec::new();
        for (a, b) in &clause.on {
            let pa = resolve(a, &blocks, catalog)?;
            let pb = resolve(b, &blocks, catalog)?;
            let in_new = |p: usize| p >= new_block.offset && p < new_block.offset + new_block.arity;
            // Exactly one side must name the relation being joined in.
            let ((left, right), (ld, rd)) = match (in_new(pa), in_new(pb)) {
                (false, true) => ((pa, pb), (a, b)),
                (true, false) => ((pb, pa), (b, a)),
                (true, true) => {
                    return Err(bind_error(format!(
                        "join condition `{a} = {b}` compares `{0}` with itself; one side \
                         must come from an earlier relation",
                        clause.relation
                    )))
                }
                (false, false) => {
                    return Err(bind_error(format!(
                        "join condition `{a} = {b}` does not mention `{}`",
                        clause.relation
                    )))
                }
            };
            let right_idx = right - new_block.offset;
            right_attrs.push(entry.schema().attributes()[right_idx].clone());
            on.push((left, right_idx));
            on_display.push((ld.to_string(), rd.to_string()));
        }
        let kind = if optimize && entry.is_key(&right_attrs) {
            JoinKind::KeyLookup
        } else {
            JoinKind::Scan
        };
        joins.push(JoinStep {
            relation: clause.relation.clone(),
            on,
            kind,
            on_display,
        });
    }

    let mut filters = Vec::new();
    for cond in &query.filters {
        let position = resolve(&cond.attr, &blocks, catalog)?;
        filters.push(FilterStep {
            position,
            value: cond.value.clone(),
            display: cond.attr.to_string(),
        });
    }

    let projection = bind_projection(query, &blocks, catalog)?;

    let dedup = if optimize {
        needs_dedup(&projection, &blocks, &joins, catalog)
    } else {
        true
    };

    Ok(Plan {
        blocks,
        joins,
        filters,
        projection,
        dedup,
    })
}

fn bind_projection(
    query: &Query,
    blocks: &[Block],
    catalog: &Catalog,
) -> Result<Vec<OutputColumn>, Error> {
    let mut projection = Vec::new();
    match &query.select {
        Select::Star => {
            // Every position; bare names where unique, `rel.attr` where not.
            for block in blocks {
                let schema = catalog
                    .schema(&block.relation)
                    .expect("block came from catalog");
                for (i, attr) in schema.attributes().iter().enumerate() {
                    let unique = blocks
                        .iter()
                        .filter(|b| {
                            catalog
                                .schema(&b.relation)
                                .expect("block came from catalog")
                                .contains(attr)
                        })
                        .count()
                        == 1;
                    let name = if unique {
                        attr.clone()
                    } else {
                        format!("{}.{attr}", block.relation)
                    };
                    projection.push(OutputColumn {
                        name,
                        position: block.offset + i,
                    });
                }
            }
        }
        Select::Attrs(attrs) => {
            for attr in attrs {
                let position = resolve(attr, blocks, catalog)?;
                projection.push(OutputColumn {
                    name: attr.to_string(),
                    position,
                });
            }
        }
    }
    let mut names: Vec<&str> = projection.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(bind_error(format!("duplicate output column `{}`", dup[0])));
    }
    Ok(projection)
}

/// Dedup elision: the projection keeps the output duplicate-free iff the
/// kept positions functionally determine every position of the combined
/// row, under the per-relation covers plus the join equalities (equated
/// positions determine each other — matched rows carry equal, non-null
/// values there).
fn needs_dedup(
    projection: &[OutputColumn],
    blocks: &[Block],
    joins: &[JoinStep],
    catalog: &Catalog,
) -> bool {
    let n: usize = blocks.iter().map(|b| b.arity).sum();
    let pos = |i: usize| AttrId(u32::try_from(i).expect("combined arity fits u32"));
    let mut fds = Vec::new();
    for block in blocks {
        let entry = catalog
            .relation(&block.relation)
            .expect("block came from catalog");
        for fd in entry.cover() {
            let map_set = |attrs: &std::collections::BTreeSet<String>| -> Option<AttrSet> {
                attrs
                    .iter()
                    .map(|a| entry.schema().index_of(a).map(|i| pos(block.offset + i)))
                    .collect()
            };
            // Covers normally mention only schema attributes; skip any FD
            // that does not, rather than trusting it.
            if let (Some(lhs), Some(rhs)) = (map_set(fd.lhs()), map_set(fd.rhs())) {
                fds.push(IFd::new(lhs, rhs));
            }
        }
    }
    for (join, block) in joins.iter().zip(blocks.iter().skip(1)) {
        for &(left, right_idx) in &join.on {
            let l: AttrSet = std::iter::once(pos(left)).collect();
            let r: AttrSet = std::iter::once(pos(block.offset + right_idx)).collect();
            fds.push(IFd::new(l.clone(), r.clone()));
            fds.push(IFd::new(r, l));
        }
    }
    let index = FdIndex::new(n, &fds);
    let kept: AttrSet = projection.iter().map(|c| pos(c.position)).collect();
    let closure = index.closure(&kept);
    !(0..n).all(|i| closure.contains(pos(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_query;
    use xmlprop_reldb::{Fd, RelationSchema};

    /// The output column names of `p`, in order.
    fn output_columns(p: &Plan) -> Vec<&str> {
        p.projection.iter().map(|c| c.name.as_str()).collect()
    }

    fn fig1_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_relation(
            RelationSchema::new("book", ["isbn", "title", "author", "contact"]),
            &[
                Fd::parse("isbn -> title").unwrap(),
                Fd::parse("isbn -> contact").unwrap(),
            ],
        );
        catalog.add_relation(
            RelationSchema::new("chapter", ["inBook", "number", "name"]),
            &[Fd::parse("inBook, number -> name").unwrap()],
        );
        catalog.add_relation(
            RelationSchema::new("section", ["inChapt", "number", "name"]),
            &[],
        );
        catalog
    }

    #[test]
    fn key_join_becomes_lookup() {
        let catalog = fig1_catalog();
        // Both sides of a join condition inside the joined relation is a
        // binding error.
        let q = parse_query(
            "select title, name from book join chapter on isbn = inBook and number = number",
        )
        .unwrap();
        assert!(plan(&q, &catalog).is_err());

        let q = parse_query("select name from book join chapter on isbn = inBook").unwrap();
        let p = plan(&q, &catalog).unwrap();
        // inBook alone is not a key of chapter: scan.
        assert_eq!(p.joins[0].kind, JoinKind::Scan);

        let catalog2 = {
            let mut c = Catalog::new();
            c.add_relation(
                RelationSchema::new("parent", ["id", "payload"]),
                &[Fd::parse("id -> payload").unwrap()],
            );
            c.add_relation(RelationSchema::new("child", ["pid", "note"]), &[]);
            c
        };
        let q = parse_query("select note from child join parent on pid = id").unwrap();
        let p = plan(&q, &catalog2).unwrap();
        assert_eq!(p.joins[0].kind, JoinKind::KeyLookup);
        let naive = plan_naive(&q, &catalog2).unwrap();
        assert_eq!(naive.joins[0].kind, JoinKind::Scan);
    }

    #[test]
    fn multi_attribute_key_lookup() {
        let catalog = fig1_catalog();
        let q = parse_query(
            "select title from book join chapter on isbn = inBook and \
             title = name",
        )
        .unwrap();
        // (inBook, name) is not a key of chapter.
        let p = plan(&q, &catalog).unwrap();
        assert_eq!(p.joins[0].kind, JoinKind::Scan);
    }

    #[test]
    fn dedup_elided_when_key_kept() {
        let catalog = fig1_catalog();
        // (inBook, number) determines name: full-row determination.
        let q = parse_query("select inBook, number from chapter").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert!(!p.dedup);
        assert!(p.describe().ends_with("[unique]"));
        // name alone determines nothing.
        let q = parse_query("select name from chapter").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert!(p.dedup);
        // isbn does not determine author.
        let q = parse_query("select isbn, title from book").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert!(p.dedup);
        // select * keeps everything: trivially unique.
        let q = parse_query("select * from book").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert!(!p.dedup);
        // The naive plan always dedups.
        let p = plan_naive(&q, &catalog).unwrap();
        assert!(p.dedup);
    }

    #[test]
    fn join_equalities_feed_determination() {
        let mut catalog = Catalog::new();
        catalog.add_relation(
            RelationSchema::new("parent", ["id", "payload"]),
            &[Fd::parse("id -> payload").unwrap()],
        );
        catalog.add_relation(
            RelationSchema::new("child", ["cid", "pid"]),
            &[Fd::parse("cid -> pid").unwrap()],
        );
        // cid -> pid = id -> payload: cid determines the whole combined row.
        let q = parse_query("select cid from child join parent on pid = id").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert_eq!(p.joins[0].kind, JoinKind::KeyLookup);
        assert!(!p.dedup);
    }

    #[test]
    fn unknown_relation_lists_catalog() {
        let catalog = fig1_catalog();
        let q = parse_query("select a from nosuch").unwrap();
        let err = plan(&q, &catalog).unwrap_err();
        assert_eq!(err.wire_code(), "relation");
        assert!(err.to_string().contains("book"), "{err}");
    }

    #[test]
    fn ambiguous_attribute_requires_qualification() {
        let catalog = fig1_catalog();
        let q = parse_query("select name from chapter join section on inChapt = chapter.number")
            .unwrap();
        let err = plan(&q, &catalog).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        let q = parse_query(
            "select chapter.name, section.name from chapter join section on \
             inChapt = chapter.number",
        )
        .unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert_eq!(output_columns(&p), ["chapter.name", "section.name"]);
    }

    #[test]
    fn star_qualifies_shared_names() {
        let catalog = fig1_catalog();
        let q =
            parse_query("select * from chapter join section on inChapt = chapter.number").unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert_eq!(
            output_columns(&p),
            [
                "inBook",
                "chapter.number",
                "chapter.name",
                "inChapt",
                "section.number",
                "section.name"
            ]
        );
    }

    #[test]
    fn describe_is_stable() {
        let catalog = fig1_catalog();
        let q = parse_query(
            "select title, name from book join chapter on isbn = inBook where title = 'XML'",
        )
        .unwrap();
        let p = plan(&q, &catalog).unwrap();
        assert_eq!(
            p.describe(),
            "scan book; join chapter on isbn = inBook [scan]; where title = 'XML'; \
             project title, name [distinct]"
        );
    }

    #[test]
    fn duplicate_output_column_rejected() {
        let catalog = fig1_catalog();
        let q = parse_query("select title, title from book").unwrap();
        assert!(plan(&q, &catalog)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }
}
