//! A deliberately naive cross-product/sort oracle, plus proptests pinning
//! the executor (keyed and naive plans alike) against it bit-for-bit.
//!
//! The oracle shares nothing with the executor's join machinery: it
//! materializes the full cross product of every relation in the query,
//! filters it by the join conditions and `where` conjuncts with
//! [`Value::sql_eq`], projects, then sorts and deduplicates. Comparisons
//! are order-normalized (the executor's output is sorted before the
//! comparison); on top of that, a plan that elided its dedup pass must
//! already be duplicate-free.

use crate::plan::{plan, plan_naive, Catalog};
use crate::syntax::{parse_query, Query, Select};
use crate::{execute, Plan};
use std::collections::HashSet;
use xmlprop_reldb::{Database, Fd, Relation, RelationSchema, Value};

/// `relation` with repeated rows dropped, first occurrences kept in order.
/// Like SQL `DISTINCT` the comparison is structural, so repeated NULL rows
/// collapse too.
fn distinct(relation: &Relation) -> Relation {
    let mut out = Relation::new(relation.schema().clone());
    let mut seen = HashSet::new();
    for row in relation.rows() {
        if seen.insert(row) {
            out.insert(row.values().cloned());
        }
    }
    out
}

/// Cross product + filter + project + sort + dedup, straight off the
/// query's surface syntax.
fn evaluate(query: &Query, catalog: &Catalog, db: &Database) -> Vec<Vec<Value>> {
    // Relation order: base, then joins.
    let mut names = vec![query.from.clone()];
    names.extend(query.joins.iter().map(|j| j.relation.clone()));
    let empty = |name: &str| Relation::new(catalog.schema(name).expect("known").clone());
    let instances: Vec<Relation> = names
        .iter()
        .map(|n| db.get(n).map_or_else(|| empty(n), distinct))
        .collect();

    // Combined attribute layout, mirroring the planner's blocks.
    let mut offsets = Vec::new();
    let mut total = 0usize;
    for rel in &instances {
        offsets.push(total);
        total += rel.schema().arity();
    }
    let position = |attr: &crate::syntax::AttrRef| -> usize {
        let mut found = Vec::new();
        for (i, rel) in instances.iter().enumerate() {
            if attr.relation.as_deref().is_some_and(|r| r != names[i]) {
                continue;
            }
            if let Some(idx) = rel.schema().index_of(&attr.attr) {
                found.push(offsets[i] + idx);
            }
        }
        assert_eq!(found.len(), 1, "oracle queries must bind unambiguously");
        found[0]
    };

    // Full cross product.
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for rel in &instances {
        let mut next = Vec::new();
        for row in &rows {
            for tuple in rel.rows() {
                let mut combined = row.clone();
                combined.extend(tuple.values().cloned());
                next.push(combined);
            }
        }
        rows = next;
    }

    // Join conditions and filters, SQL equality throughout.
    for join in &query.joins {
        for (a, b) in &join.on {
            let (pa, pb) = (position(a), position(b));
            rows.retain(|row| row[pa].sql_eq(&row[pb]));
        }
    }
    for cond in &query.filters {
        let p = position(&cond.attr);
        let needle = Value::text(cond.value.clone());
        rows.retain(|row| row[p].sql_eq(&needle));
    }

    // Project, sort, dedup.
    let projection: Vec<usize> = match &query.select {
        Select::Star => (0..total).collect(),
        Select::Attrs(attrs) => attrs.iter().map(position).collect(),
    };
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| projection.iter().map(|&p| row[p].clone()).collect())
        .collect();
    out.sort();
    out.dedup();
    out
}

fn rows_of(result: &Relation) -> Vec<Vec<Value>> {
    result
        .rows()
        .map(|t| t.values().cloned().collect())
        .collect()
}

/// Executes `plan` and checks it against the oracle, order-normalized.
fn check_against_oracle(query: &Query, the_plan: &Plan, catalog: &Catalog, db: &Database) {
    let result = execute(the_plan, db).expect("execution succeeds");
    let mut got = rows_of(&result);
    if !the_plan.dedup {
        // An elided dedup pass must not have let duplicates through.
        let mut dedup = got.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), got.len(), "elided dedup admitted duplicates");
    }
    got.sort();
    got.dedup();
    assert_eq!(
        got,
        evaluate(query, catalog, db),
        "plan: {}",
        the_plan.describe()
    );
}

/// A parent/child catalog whose instances the generator keeps FD-clean:
/// `parent.id` is unique, so `id -> payload` genuinely holds.
fn parent_child_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_relation(
        RelationSchema::new("parent", ["id", "payload"]),
        &[Fd::parse("id -> payload").unwrap()],
    );
    catalog.add_relation(RelationSchema::new("child", ["pid", "note", "extra"]), &[]);
    catalog
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Index 0 becomes NULL; small value alphabets force collisions.
    fn value(options: &'static [&'static str]) -> impl Strategy<Value = Value> {
        (0..options.len() + 1).prop_map(move |i| {
            if i == 0 {
                Value::Null
            } else {
                Value::text(options[i - 1])
            }
        })
    }

    /// Parent rows with structurally distinct ids (NULL allowed at most
    /// once by distinctness), so `id -> payload` holds classically and the
    /// dedup-elision preconditions are met.
    fn parent_rows() -> impl Strategy<Value = Vec<(Value, Value)>> {
        proptest::collection::vec(
            (value(&["1", "2", "3", "4", "5"]), value(&["a", "b"])),
            0..6,
        )
        .prop_map(|mut rows| {
            let mut seen = std::collections::BTreeSet::new();
            rows.retain(|(id, _)| seen.insert(id.clone()));
            rows
        })
    }

    fn child_rows() -> impl Strategy<Value = Vec<(Value, Value, Value)>> {
        proptest::collection::vec(
            (
                value(&["1", "2", "3", "9"]),
                value(&["x", "y"]),
                value(&["p", "q"]),
            ),
            0..8,
        )
    }

    fn database(parent: Vec<(Value, Value)>, child: Vec<(Value, Value, Value)>) -> Database {
        let mut parent_rel = Relation::new(RelationSchema::new("parent", ["id", "payload"]));
        for (id, payload) in parent {
            parent_rel.insert(vec![id, payload]);
        }
        let mut child_rel = Relation::new(RelationSchema::new("child", ["pid", "note", "extra"]));
        for (pid, note, extra) in child {
            child_rel.insert(vec![pid, note, extra]);
        }
        let mut db = Database::new();
        db.insert(parent_rel);
        db.insert(child_rel);
        db
    }

    const QUERIES: [&str; 8] = [
        "select * from parent",
        "select payload from parent",
        "select id from parent where payload = 'a'",
        "select from child",
        "select * from child join parent on pid = id",
        "select note, payload from child join parent on pid = id",
        "select pid from child join parent on pid = id where payload = 'b'",
        "select extra from child join parent on pid = id and note = payload",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Keyed plan == naive plan == cross-product oracle, on random
        /// NULL-riddled instances whose parent key genuinely holds.
        #[test]
        fn executor_matches_oracle(parent in parent_rows(), child in child_rows()) {
            let catalog = parent_child_catalog();
            let db = database(parent, child);
            for text in QUERIES {
                let query = parse_query(text).unwrap();
                let optimized = plan(&query, &catalog).unwrap();
                let naive = plan_naive(&query, &catalog).unwrap();
                check_against_oracle(&query, &optimized, &catalog, &db);
                check_against_oracle(&query, &naive, &catalog, &db);
                // Same row *sequence*, not just the same bag: a key lookup
                // replaces a scan without perturbing order, and on
                // FD-clean instances an elided dedup changes nothing.
                let a = execute(&optimized, &db).unwrap();
                let b = execute(&naive, &db).unwrap();
                prop_assert_eq!(&rows_of(&a), &rows_of(&b), "query: {}", text);
            }
        }
    }
}
