//! Plan execution over a [`Database`].
//!
//! The engine has **set semantics with SQL comparisons**: every input
//! relation is deduplicated on load (shredding produces bags), join and
//! `where` comparisons use [`Value::sql_eq`] (a NULL never equals anything,
//! itself included), and duplicate elimination on output is structural —
//! like SQL `DISTINCT`, two NULLs collapse into one row.
//!
//! Row order is deterministic and identical for the optimized and the naive
//! plan: the base relation is scanned in (first-occurrence) row order, each
//! join emits matches in the joined relation's row order — a keyed table's
//! buckets keep right-row order, so a [`JoinKind::KeyLookup`] produces the
//! exact row sequence of the nested-loop scan it replaces.

use crate::plan::{JoinKind, Plan};
use std::collections::{BTreeSet, HashMap, HashSet};
use xmlprop_pipeline::Error;
use xmlprop_reldb::{Database, Relation, RelationSchema, Value};
use xmlprop_xmltree::FoldState;

/// A relation hashed on a key: `key values -> row indices`, in row order.
///
/// Rows whose key contains a NULL are **not indexed** — under SQL equality
/// they can never be matched — and a probe containing a NULL never looks
/// anything up. For non-null keys, structural equality (the `HashMap`'s)
/// and SQL equality coincide, so bucket membership is exactly SQL-equal
/// matching. Buckets hold every matching row (a `Vec`, not a single slot):
/// key-violating data degrades the lookup join to per-bucket scans instead
/// of silently dropping rows.
pub struct KeyedTable<'a> {
    rows: &'a [Vec<Value>],
    key: Vec<usize>,
    buckets: HashMap<Vec<Value>, Vec<usize>, FoldState>,
}

impl<'a> KeyedTable<'a> {
    /// Builds the index over `rows`, keyed on the attribute positions in
    /// `key`.
    pub fn build(rows: &'a [Vec<Value>], key: Vec<usize>) -> Self {
        let mut buckets: HashMap<Vec<Value>, Vec<usize>, FoldState> = HashMap::default();
        for (i, row) in rows.iter().enumerate() {
            if key.iter().any(|&k| row[k].is_null()) {
                continue;
            }
            let k: Vec<Value> = key.iter().map(|&k| row[k].clone()).collect();
            buckets.entry(k).or_default().push(i);
        }
        KeyedTable { rows, key, buckets }
    }

    /// The rows SQL-equal to `probe` on the key, in row order. A NULL in
    /// the probe matches nothing.
    pub fn lookup(&self, probe: &[Value]) -> impl Iterator<Item = &'a Vec<Value>> + '_ {
        debug_assert_eq!(probe.len(), self.key.len());
        let hits = if probe.iter().any(Value::is_null) {
            None
        } else {
            self.buckets.get(probe)
        };
        hits.into_iter().flatten().map(move |&i| &self.rows[i])
    }
}

/// Loads one relation as a deduplicated row list, rows in first-occurrence
/// order, cloning each kept row once. A relation absent from the database
/// (no tuples were shredded for it) is the empty instance.
fn load(db: &Database, name: &str, arity: usize) -> Result<Vec<Vec<Value>>, Error> {
    let Some(relation) = db.get(name) else {
        return Ok(Vec::new());
    };
    if relation.schema().arity() != arity {
        return Err(Error::internal(format!(
            "relation `{name}` has arity {}, the plan expects {arity}",
            relation.schema().arity()
        )));
    }
    let mut seen = HashSet::with_capacity_and_hasher(relation.len(), FoldState::default());
    Ok(relation
        .rows()
        .filter(|row| seen.insert(*row))
        .map(|row| row.values().cloned().collect())
        .collect())
}

/// Executes `plan` over `db`, returning the result as a `result(...)`
/// relation (columns named by the projection, rows in plan order).
pub fn execute(plan: &Plan, db: &Database) -> Result<Relation, Error> {
    let base = &plan.blocks[0];
    let mut rows = load(db, &base.relation, base.arity)?;

    for (join, block) in plan.joins.iter().zip(plan.blocks.iter().skip(1)) {
        let right = load(db, &block.relation, block.arity)?;
        let mut joined = Vec::new();
        match join.kind {
            JoinKind::KeyLookup => {
                let key: Vec<usize> = join.on.iter().map(|&(_, r)| r).collect();
                let table = KeyedTable::build(&right, key);
                let mut probe = Vec::with_capacity(join.on.len());
                for row in &rows {
                    probe.clear();
                    probe.extend(join.on.iter().map(|&(l, _)| row[l].clone()));
                    for hit in table.lookup(&probe) {
                        let mut combined = row.clone();
                        combined.extend(hit.iter().cloned());
                        joined.push(combined);
                    }
                }
            }
            JoinKind::Scan => {
                for row in &rows {
                    for r in &right {
                        if join.on.iter().all(|&(l, ri)| row[l].sql_eq(&r[ri])) {
                            let mut combined = row.clone();
                            combined.extend(r.iter().cloned());
                            joined.push(combined);
                        }
                    }
                }
            }
        }
        rows = joined;
    }

    for filter in &plan.filters {
        let needle = Value::text(filter.value.clone());
        rows.retain(|row| row[filter.position].sql_eq(&needle));
    }

    let schema = RelationSchema::new("result", plan.projection.iter().map(|c| c.name.as_str()));
    let mut result = Relation::new(schema);
    let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
    for row in &rows {
        let projected: Vec<Value> = plan
            .projection
            .iter()
            .map(|c| row[c.position].clone())
            .collect();
        if plan.dedup && !seen.insert(projected.clone()) {
            continue;
        }
        result.insert(projected);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, plan_naive, Catalog};
    use crate::syntax::parse_query;
    use xmlprop_reldb::Fd;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            RelationSchema::new("parent", ["id", "payload"]),
            &[Fd::parse("id -> payload").unwrap()],
        );
        c.add_relation(RelationSchema::new("child", ["pid", "note"]), &[]);
        c
    }

    fn db(parent: &[(&str, Option<&str>)], child: &[(Option<&str>, &str)]) -> Database {
        let mut parent_rel = Relation::new(RelationSchema::new("parent", ["id", "payload"]));
        for (id, payload) in parent {
            parent_rel.insert(vec![
                Value::text(*id),
                payload.map(Value::text).unwrap_or(Value::Null),
            ]);
        }
        let mut child_rel = Relation::new(RelationSchema::new("child", ["pid", "note"]));
        for (pid, note) in child {
            child_rel.insert(vec![
                pid.map(Value::text).unwrap_or(Value::Null),
                Value::text(*note),
            ]);
        }
        let mut db = Database::new();
        db.insert(parent_rel);
        db.insert(child_rel);
        db
    }

    fn run(query: &str, db: &Database) -> Relation {
        let q = parse_query(query).unwrap();
        execute(&plan(&q, &catalog()).unwrap(), db).unwrap()
    }

    fn run_naive(query: &str, db: &Database) -> Relation {
        let q = parse_query(query).unwrap();
        execute(&plan_naive(&q, &catalog()).unwrap(), db).unwrap()
    }

    #[test]
    fn keyed_join_matches_naive_and_skips_nulls() {
        let db = db(
            &[("1", Some("a")), ("2", None)],
            &[
                (Some("1"), "first"),
                (Some("2"), "second"),
                (None, "orphan"),
                (Some("9"), "dangling"),
            ],
        );
        let q = "select pid, note, payload from child join parent on pid = id";
        let keyed = run(q, &db);
        let naive = run_naive(q, &db);
        assert_eq!(keyed, naive);
        assert_eq!(keyed.len(), 2);
        // The NULL pid never matched anything even though parent has no
        // NULL id to match it against structurally.
        assert!(keyed.rows().all(|t| t.get(1).as_text() != Some("orphan")));
    }

    #[test]
    fn null_key_rows_are_never_matched() {
        // A NULL parent id must not be matched by a NULL probe.
        let mut parent_rel = Relation::new(RelationSchema::new("parent", ["id", "payload"]));
        parent_rel.insert(vec![Value::Null, Value::text("ghost")]);
        let mut child_rel = Relation::new(RelationSchema::new("child", ["pid", "note"]));
        child_rel.insert(vec![Value::Null, Value::text("lost")]);
        let mut d = Database::new();
        d.insert(parent_rel);
        d.insert(child_rel);
        let q = "select note from child join parent on pid = id";
        assert!(run(q, &d).is_empty());
        assert!(run_naive(q, &d).is_empty());
    }

    #[test]
    fn keyed_table_keeps_every_violating_row() {
        // Key-violating data: two rows share the key. The bucket keeps
        // both, so lookup == scan.
        let rows = vec![
            vec![Value::text("k"), Value::text("a")],
            vec![Value::text("k"), Value::text("b")],
            vec![Value::Null, Value::text("c")],
        ];
        let table = KeyedTable::build(&rows, vec![0]);
        let hits: Vec<&str> = table
            .lookup(&[Value::text("k")])
            .map(|r| r[1].as_text().unwrap())
            .collect();
        assert_eq!(hits, ["a", "b"]);
        assert_eq!(table.lookup(&[Value::Null]).count(), 0);
    }

    #[test]
    fn where_filter_uses_sql_eq() {
        let db = db(&[("1", None)], &[]);
        // payload is NULL: `payload = '…'` never matches, whatever the text.
        let result = run("select id from parent where payload = 'a'", &db);
        assert!(result.is_empty());
    }

    #[test]
    fn empty_relation_and_no_match_join_are_well_formed() {
        let empty = db(&[], &[]);
        let result = run("select id, payload from parent", &empty);
        assert!(result.is_empty());
        assert_eq!(result.schema().attributes(), ["id", "payload"]);

        let no_match = db(&[("1", Some("a"))], &[(Some("2"), "x")]);
        let result = run("select note from child join parent on pid = id", &no_match);
        assert!(result.is_empty());
    }

    #[test]
    fn missing_relation_is_empty_instance() {
        let d = Database::new();
        let result = run("select id from parent", &d);
        assert!(result.is_empty());
    }

    #[test]
    fn zero_attr_projection_yields_at_most_one_row() {
        let d = db(&[("1", Some("a")), ("2", Some("b"))], &[]);
        let result = run("select from parent", &d);
        assert_eq!(result.len(), 1);
        assert_eq!(result.schema().arity(), 0);
        let empty = db(&[], &[]);
        assert!(run("select from parent", &empty).is_empty());
    }

    #[test]
    fn output_dedup_collapses_nulls_like_sql_distinct() {
        let d = db(&[("1", None), ("2", None)], &[]);
        let result = run("select payload from parent", &d);
        assert_eq!(result.len(), 1);
        assert!(result.row(0).get(0).is_null());
    }

    #[test]
    fn inputs_are_deduplicated_on_load() {
        let mut parent_rel = Relation::new(RelationSchema::new("parent", ["id", "payload"]));
        for _ in 0..3 {
            parent_rel.insert(vec![Value::text("1"), Value::text("a")]);
        }
        let mut d = Database::new();
        d.insert(parent_rel);
        // `select *` elides dedup; load-time dedup keeps the output clean.
        let result = run("select * from parent", &d);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn arity_mismatch_is_an_internal_error() {
        let mut d = Database::new();
        d.insert(Relation::new(RelationSchema::new("parent", ["only"])));
        // The catalog says parent has two attributes; this database one.
        let q = parse_query("select id from parent").unwrap();
        let err = execute(&plan(&q, &catalog()).unwrap(), &d).unwrap_err();
        assert_eq!(err.wire_code(), "internal");
    }
}
