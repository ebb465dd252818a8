//! Checking a *predefined* relational schema against XML keys
//! (the Example 1.1 scenario).
//!
//! A consumer database designer declares keys on the relations their
//! transformation populates.  Each declared key `K` of relation `R`
//! corresponds to the FDs `K → A` for every other attribute `A` of `R`;
//! the design is *consistent* with the XML keys when every such FD is
//! propagated — then no import of key-satisfying XML data can ever violate
//! the relational keys, which is exactly the guarantee the designers of
//! Example 1.1 were missing.

use crate::PropagationEngine;
use std::collections::BTreeSet;
use xmlprop_reldb::Fd;
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::Transformation;

/// The verdict for one declared relational key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCheck {
    /// The relation the key was declared on.
    pub relation: String,
    /// The declared key attributes.
    pub key: BTreeSet<String>,
    /// The FDs (one per non-key attribute) the key stands for.
    pub required_fds: Vec<Fd>,
    /// The subset of `required_fds` that are *not* propagated from the XML
    /// keys; empty iff the declared key is guaranteed.
    pub unsupported_fds: Vec<Fd>,
}

impl KeyCheck {
    /// True if the declared key is guaranteed by the XML keys.
    pub fn guaranteed(&self) -> bool {
        self.unsupported_fds.is_empty()
    }
}

/// A consistency report over a set of declared keys.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// One entry per declared key, in the order they were given.
    pub checks: Vec<KeyCheck>,
}

impl ConsistencyReport {
    /// True if every declared key is guaranteed.
    pub fn all_guaranteed(&self) -> bool {
        self.checks.iter().all(KeyCheck::guaranteed)
    }

    /// The checks that failed.
    pub fn failures(&self) -> impl Iterator<Item = &KeyCheck> {
        self.checks.iter().filter(|c| !c.guaranteed())
    }
}

impl std::fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for check in &self.checks {
            let key: Vec<&str> = check.key.iter().map(String::as_str).collect();
            if check.guaranteed() {
                writeln!(
                    f,
                    "[ok]   {}({}) is guaranteed by the XML keys",
                    check.relation,
                    key.join(", ")
                )?;
            } else {
                writeln!(
                    f,
                    "[FAIL] {}({}) is NOT guaranteed; unsupported dependencies:",
                    check.relation,
                    key.join(", ")
                )?;
                for fd in &check.unsupported_fds {
                    writeln!(f, "         {fd}")?;
                }
            }
        }
        Ok(())
    }
}

/// Checks declared relational keys against the XML keys via the
/// transformation.  `declared` associates relation names with their declared
/// key attribute sets; relations or attributes that do not exist in the
/// transformation make the corresponding key unsupported (reported, not
/// panicking).
pub fn check_declared_keys<'a, I, K, S>(
    sigma: &KeySet,
    transformation: &Transformation,
    declared: I,
) -> ConsistencyReport
where
    I: IntoIterator<Item = (&'a str, K)>,
    K: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut report = ConsistencyReport::default();
    for (relation, key) in declared {
        let key: BTreeSet<String> = key.into_iter().map(Into::into).collect();
        let Some(rule) = transformation.rule(relation) else {
            report.checks.push(KeyCheck {
                relation: relation.to_string(),
                key: key.clone(),
                required_fds: Vec::new(),
                unsupported_fds: vec![Fd::new(key, BTreeSet::new())],
            });
            continue;
        };
        let mut required = Vec::new();
        let mut unsupported = Vec::new();
        // One prepared engine and one borrowed slice of the key serve every
        // probe; the FDs the report carries are only materialized per
        // checked attribute.
        let engine = PropagationEngine::prepare(sigma, rule);
        let key_fields: Vec<&str> = key.iter().map(String::as_str).collect();
        for attr in rule.schema().attributes() {
            if key.contains(attr) {
                continue;
            }
            let fd = Fd::new(key.clone(), std::iter::once(attr.clone()).collect());
            if !engine.propagation_fields(&key_fields, attr) {
                unsupported.push(fd.clone());
            }
            required.push(fd);
        }
        report.checks.push(KeyCheck {
            relation: relation.to_string(),
            key,
            required_fds: required,
            unsupported_fds: unsupported,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_xmlkeys::example_2_1_keys;
    use xmlprop_xmltransform::Transformation;

    fn designs() -> (Transformation, Transformation) {
        let initial = Transformation::new(vec![
            xmlprop_xmltransform::sample::example_1_1_initial_chapter(),
        ]);
        let refined = Transformation::new(vec![
            xmlprop_xmltransform::sample::example_1_1_refined_chapter(),
        ]);
        (initial, refined)
    }

    #[test]
    fn example_1_1_initial_design_is_flagged() {
        let sigma = example_2_1_keys();
        let (initial, _) = designs();
        let report =
            check_declared_keys(&sigma, &initial, [("Chapter", ["bookTitle", "chapterNum"])]);
        assert!(!report.all_guaranteed());
        assert_eq!(report.failures().count(), 1);
        let check = &report.checks[0];
        assert!(!check.guaranteed());
        assert_eq!(check.unsupported_fds.len(), 1);
        assert!(report.to_string().contains("NOT guaranteed"));
    }

    #[test]
    fn example_1_1_refined_design_is_guaranteed() {
        let sigma = example_2_1_keys();
        let (_, refined) = designs();
        let report = check_declared_keys(&sigma, &refined, [("Chapter", ["isbn", "chapterNum"])]);
        assert!(report.all_guaranteed());
        assert!(report.to_string().contains("[ok]"));
        assert_eq!(report.checks[0].required_fds.len(), 1);
    }

    #[test]
    fn whole_schema_of_example_2_4() {
        let sigma = example_2_1_keys();
        let t = xmlprop_xmltransform::sample::example_2_4_transformation();
        // The keys underlined in Example 2.4's schema R.
        let report = check_declared_keys(
            &sigma,
            &t,
            [
                ("book", vec!["isbn"]),
                ("chapter", vec!["inBook", "number"]),
                ("section", vec!["inChapt", "number"]),
            ],
        );
        // book(isbn) is NOT fully guaranteed (isbn does not determine the
        // author field — a book may have several authors), chapter's key is
        // guaranteed, and section's is not (section numbers repeat across
        // books).
        let verdicts: Vec<bool> = report.checks.iter().map(KeyCheck::guaranteed).collect();
        assert_eq!(verdicts, vec![false, true, false]);
        let book = &report.checks[0];
        assert_eq!(
            book.unsupported_fds,
            vec![Fd::parse("isbn -> author").unwrap()]
        );
    }

    #[test]
    fn unknown_relation_is_reported_not_panicking() {
        let sigma = example_2_1_keys();
        let (_, refined) = designs();
        let report = check_declared_keys(&sigma, &refined, [("NoSuchTable", ["id"])]);
        assert!(!report.all_guaranteed());
    }
}
