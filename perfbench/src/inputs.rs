//! Input generation shared by the workloads, on top of `xmlprop-workload`.
//!
//! The *schema* of each workload (key set Σ and rules) is fixed: it is
//! generated from the workload crate's default seed, so every benchmark
//! seed measures the same design.  The benchmark seed drives the data:
//! documents, request mixes, probe FDs and edit scripts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xmlprop_pipeline::CorpusBundle;
use xmlprop_workload::{generate, CorpusConfig, DocConfig, Workload, WorkloadConfig};
use xmlprop_xmltransform::{parse_single_rule, TableRule, Transformation};

/// The schema of a workload: `fields` fields over `depth` nested entity
/// levels with `keys` XML keys (`generate(fields, depth, keys)`).
pub fn schema(fields: usize, depth: usize, keys: usize) -> Workload {
    generate(&WorkloadConfig::new(fields, depth, keys))
}

/// An independent random stream for one purpose (`stream`) of a seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// The per-level rule `L{level}`: the chain identifiers `id0..id{level}`
/// plus the attribute fields of entity level `level`.  Each attribute is
/// unique under its element, so the propagated cover makes the chain
/// identifiers a key and a join that equates them plans as a key lookup.
/// (Element fields are left to `U`: without a uniqueness key they would
/// keep the chain from being a key.)
pub fn level_rule(w: &Workload, level: usize) -> TableRule {
    let mut fields: Vec<String> = (0..=level).map(|l| w.id_field(l).to_string()).collect();
    fields.extend(w.attr_fields_per_level[level].iter().skip(1).cloned());
    let mut body = String::new();
    for (l, label) in w.level_labels.iter().enumerate().take(level + 1) {
        if l == 0 {
            body.push_str(&format!("  v0 := xr//{label};\n"));
        } else {
            body.push_str(&format!("  v{l} := v{}/{label};\n", l - 1));
        }
        body.push_str(&format!("  w_{id} := v{l}/@{id};\n", id = w.id_field(l)));
    }
    for field in w.attr_fields_per_level[level].iter().skip(1) {
        body.push_str(&format!("  w_{field} := v{level}/@{field};\n"));
    }
    for field in &fields {
        body.push_str(&format!("  {field} := value(w_{field});\n"));
    }
    let text = format!("rule L{level}({}) {{\n{body}}}", fields.join(", "));
    parse_single_rule(&text).expect("generated level rule is well-formed")
}

/// The universal rule `U` plus one [`level_rule`] per entity level.
pub fn transformation(w: &Workload) -> Transformation {
    let mut t = Transformation::new(Vec::new());
    t.add_rule(w.universal.clone());
    for level in 0..w.config.depth {
        t.add_rule(level_rule(w, level));
    }
    t
}

/// The prepared bundle of Σ and [`transformation`].
pub fn bundle(w: &Workload) -> CorpusBundle {
    CorpusBundle::prepare(w.sigma.clone(), transformation(w))
}

/// A corpus configuration: `documents` documents of `levels` entity levels
/// with `branching` children per entity, seeded from `seed`.
pub fn corpus_config(documents: usize, branching: usize, levels: usize, seed: u64) -> CorpusConfig {
    CorpusConfig {
        documents,
        base: DocConfig {
            branching,
            omission_probability: 0.1,
            seed,
            depth: Some(levels),
        },
    }
}

/// Formats a count with thousands separators.
pub fn thousands(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_rules_parse_and_key_their_chain() {
        let w = schema(15, 4, 10);
        let t = transformation(&w);
        assert_eq!(t.rules().len(), 5);
        let l2 = t.rule("L2").expect("L2 exists");
        assert!(l2.schema().contains("id0") && l2.schema().contains("id2"));
    }

    #[test]
    fn thousands_groups_digits() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(1234567), "1,234,567");
        assert_eq!(thousands(999), "999");
    }
}
