//! Key-aware query execution is equivalent to the naive baseline.
//!
//! For random two-level workloads — random field assignment, random key
//! sets, random documents with omitted optional fields (the injected
//! NULLs) — every query plan executed with the key-aware optimizations
//! (hash-lookup joins, FD-elided deduplication) must produce the same
//! rows as the naive nested-loop/always-dedup plan.  The documents
//! satisfy Σ by construction, so the shredded instances satisfy the
//! propagated covers and the outputs must agree not just as bags but
//! **row for row**: the keyed join emits matches in right-scan order,
//! exactly like the nested loop it replaces.

use proptest::prelude::*;
use xmlprop::pipeline::{CorpusBundle, CorpusOptions};
use xmlprop::prelude::*;
use xmlprop::query::{execute, parse_query, plan, plan_naive, Catalog, JoinKind};
use xmlprop::reldb::Database;
use xmlprop::workload::{generate, generate_document, DocConfig, Workload, WorkloadConfig};
use xmlprop::xmltransform::parse_single_rule;

/// A two-rule transformation over a depth-2 workload's document shape:
/// `parent` shreds entity level 0, `child` shreds level 1 carrying the
/// parent identifier (like `chapter(inBook, number, name)` in the paper).
fn two_level_rules(w: &Workload) -> Transformation {
    assert_eq!(w.level_labels.len(), 2, "two_level_rules needs depth 2");
    let l0 = &w.level_labels[0];
    let l1 = &w.level_labels[1];

    let mut rules = Transformation::new(Vec::new());
    for (name, fields, body_levels) in [
        ("parent", level_fields(w, 0), 1usize),
        (
            "child",
            {
                let mut f = vec!["id0".to_string()];
                f.extend(level_fields(w, 1));
                f
            },
            2usize,
        ),
    ] {
        let mut body = String::new();
        body.push_str(&format!("  v0 := xr//{l0};\n"));
        if body_levels > 1 {
            body.push_str(&format!("  v1 := v0/{l1};\n"));
        }
        for level in 0..body_levels {
            // The child rule binds only the parent's identifier at level 0.
            let in_scope = |f: &String| body_levels == 1 || level == 1 || f == "id0";
            for field in w.attr_fields_per_level[level]
                .iter()
                .filter(|f| in_scope(f))
            {
                body.push_str(&format!("  w_{field} := v{level}/@{field};\n"));
            }
            for field in w.element_fields_per_level[level]
                .iter()
                .filter(|f| in_scope(f))
            {
                body.push_str(&format!("  w_{field} := v{level}/{field}_el;\n"));
            }
        }
        for field in &fields {
            body.push_str(&format!("  {field} := value(w_{field});\n"));
        }
        let text = format!("rule {name}({}) {{\n{body}}}", fields.join(", "));
        rules.add_rule(parse_single_rule(&text).expect("generated rule is well-formed"));
    }
    rules
}

/// All fields of entity level `level`, identifier first.
fn level_fields(w: &Workload, level: usize) -> Vec<String> {
    let mut fields = w.attr_fields_per_level[level].clone();
    fields.extend(w.element_fields_per_level[level].iter().cloned());
    fields
}

/// Shreds one workload document and builds the query catalog from the
/// bundle's propagated covers — the same wiring as the server renderer.
fn shred_and_catalog(bundle: &CorpusBundle, doc: &Document) -> (Catalog, Database) {
    let mut catalog = Catalog::new();
    for engine in bundle.engines() {
        catalog.add_relation(engine.rule().schema().clone(), &engine.minimum_cover());
    }
    let result = bundle.run_sequential(std::slice::from_ref(doc), &CorpusOptions::default());
    assert!(
        result.documents[0].violations.is_empty(),
        "generated documents satisfy their key set"
    );
    (catalog, result.documents[0].database.clone())
}

/// The rows of a result relation, as plain value vectors.
fn rows_of(relation: &xmlprop::reldb::Relation) -> Vec<Vec<Value>> {
    relation
        .rows()
        .map(|t| t.values().cloned().collect())
        .collect()
}

/// A `'…'` literal for the query text, with the grammar's `''` escape.
fn literal(value: &Value) -> String {
    match value.as_text() {
        Some(text) => format!("'{}'", text.replace('\'', "''")),
        None => "'zzz-no-such-value'".to_string(),
    }
}

/// The queries run against one shredded instance: scans, star selects,
/// both join directions (the `parent` side is keyed on `id0` whenever its
/// propagated cover determines every field), a harvested-literal filter
/// that matches and one that cannot.
fn queries(catalog: &Catalog, db: &Database) -> Vec<String> {
    let parent_extra = catalog
        .schema("parent")
        .expect("parent is in the catalog")
        .attributes()
        .get(1)
        .cloned()
        .unwrap_or_else(|| "id0".to_string());
    let harvested = db
        .get("parent")
        .and_then(|r| r.rows().next())
        .map(|t| literal(t.get(0)))
        .unwrap_or_else(|| "'zzz-no-such-value'".to_string());
    vec![
        "select * from parent".to_string(),
        "select * from child".to_string(),
        format!("select id1, {parent_extra} from child join parent on child.id0 = parent.id0"),
        format!(
            "select child.id1, parent.{parent_extra} \
             from parent join child on parent.id0 = child.id0"
        ),
        format!("select {parent_extra} from parent where id0 = {harvested}"),
        "select id1 from child where id1 = 'zzz-no-such-value'".to_string(),
        "select from child".to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn keyed_execution_matches_the_naive_baseline(
        fields in 4usize..9,
        keys in 4usize..10,
        ratio in prop_oneof![Just(0.0f64), Just(0.3), Just(0.6)],
        seed in 0u64..1000,
        branching in 1usize..4,
        omission in prop_oneof![Just(0.0f64), Just(0.3), Just(0.6)],
    ) {
        let w = generate(&WorkloadConfig {
            element_field_ratio: ratio,
            ..WorkloadConfig::new(fields, 2, keys).with_seed(seed)
        });
        let doc = generate_document(&w, &DocConfig {
            branching,
            omission_probability: omission,
            seed: seed ^ 0xbeef,
            depth: None,
        });
        let bundle = CorpusBundle::prepare(w.sigma.clone(), two_level_rules(&w));
        let (catalog, db) = shred_and_catalog(&bundle, &doc);

        for text in queries(&catalog, &db) {
            let query = parse_query(&text).expect("generated query parses");
            let keyed = execute(&plan(&query, &catalog).unwrap(), &db).unwrap();
            let naive = execute(&plan_naive(&query, &catalog).unwrap(), &db).unwrap();

            // Bag equality (order-normalized) …
            let mut keyed_bag = rows_of(&keyed);
            let mut naive_bag = rows_of(&naive);
            keyed_bag.sort();
            naive_bag.sort();
            prop_assert_eq!(&keyed_bag, &naive_bag, "bags diverged for `{}`", &text);

            // … and, on Σ-satisfying instances, exact row order too.
            prop_assert_eq!(
                rows_of(&keyed),
                rows_of(&naive),
                "row order diverged for `{}`", &text
            );
        }
    }
}

/// With every field mapped from an attribute, the chain key `id0` alone
/// determines all of `parent`, so the join equated on it must plan as a
/// hash lookup — the deterministic pin that the proptest above actually
/// exercises the keyed path.
#[test]
fn all_attribute_workload_plans_a_key_lookup_join() {
    let w = generate(&WorkloadConfig {
        element_field_ratio: 0.0,
        ..WorkloadConfig::new(6, 2, 8).with_seed(1)
    });
    let bundle = CorpusBundle::prepare(w.sigma.clone(), two_level_rules(&w));
    let mut catalog = Catalog::new();
    for engine in bundle.engines() {
        catalog.add_relation(engine.rule().schema().clone(), &engine.minimum_cover());
    }
    let query = parse_query("select id1 from child join parent on child.id0 = parent.id0").unwrap();
    let keyed = plan(&query, &catalog).unwrap();
    assert_eq!(keyed.joins.len(), 1);
    assert_eq!(
        keyed.joins[0].kind,
        JoinKind::KeyLookup,
        "plan: {}",
        keyed.describe()
    );
    let naive = plan_naive(&query, &catalog).unwrap();
    assert_eq!(naive.joins[0].kind, JoinKind::Scan);
}
