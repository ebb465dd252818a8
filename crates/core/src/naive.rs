//! Algorithm `naive`: the exponential minimum-cover baseline (Section 5).
//!
//! The naive algorithm enumerates every candidate FD `X → A` over the
//! universal relation, checks each with Algorithm `propagation`, and then
//! minimizes the resulting (exponentially large) set with the relational
//! `minimize` function.  The paper uses it both to explain why a smarter
//! algorithm is needed and as the baseline of Fig. 7(a).

use crate::PropagationEngine;
use xmlprop_reldb::{minimize, Fd};
use xmlprop_xmlkeys::KeySet;
use xmlprop_xmltransform::TableRule;

/// All the non-trivial FDs on `rule`'s relation that are propagated from
/// `sigma` — the set `Σ_F` of the paper.  Exponential in the number of
/// fields (every subset of the attributes is tried as a left-hand side), so
/// only call this on small schemas; the benchmarks cap it accordingly.
///
/// Left-hand sides are enumerated as borrowed field slices probed against
/// one prepared [`PropagationEngine`]; a string-based [`Fd`] is only
/// materialized for the (few) probes that turn out to be propagated.
pub(crate) fn naive_propagated_fds(sigma: &KeySet, rule: &TableRule) -> Vec<Fd> {
    let engine = PropagationEngine::prepare(sigma, rule);
    // Sorted, so each enumerated slice is in the order `propagation_fields`
    // expects (and the output matches the historical BTreeSet-based order).
    let mut attrs: Vec<&str> = rule
        .schema()
        .attributes()
        .iter()
        .map(String::as_str)
        .collect();
    attrs.sort_unstable();
    let n = attrs.len();
    assert!(
        n < 64,
        "naive enumeration over {n} fields would overflow; use minimum_cover"
    );
    let mut out = Vec::new();
    let mut lhs: Vec<&str> = Vec::with_capacity(n);
    for a in rule.schema().attributes() {
        for mask in 0u64..(1u64 << n) {
            lhs.clear();
            lhs.extend(
                attrs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, s)| *s),
            );
            if lhs.contains(&a.as_str()) {
                continue; // trivial
            }
            if engine.propagation_fields(&lhs, a) {
                out.push(Fd::to_attr(lhs.iter().copied(), a.clone()));
            }
        }
    }
    out
}

/// The naive minimum-cover algorithm: enumerate, check, minimize.
pub fn naive_minimum_cover(sigma: &KeySet, rule: &TableRule) -> Vec<Fd> {
    minimize(&naive_propagated_fds(sigma, rule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_reldb::{covers_equivalent, is_nonredundant};
    use xmlprop_xmlkeys::example_2_1_keys;
    use xmlprop_xmltransform::sample::{example_1_1_refined_chapter, example_2_4_transformation};

    #[test]
    fn naive_cover_for_the_chapter_rule() {
        let sigma = example_2_1_keys();
        let rule = example_1_1_refined_chapter();
        let cover = naive_minimum_cover(&sigma, &rule);
        // The only propagated dependency is the paper's headline key:
        // (isbn, chapterNum) -> chapterName.
        let expected = vec![Fd::parse("isbn, chapterNum -> chapterName").unwrap()];
        assert!(covers_equivalent(&cover, &expected), "got {cover:?}");
        assert!(is_nonredundant(&cover));
    }

    #[test]
    fn naive_cover_for_the_book_rule() {
        let sigma = example_2_1_keys();
        let t = example_2_4_transformation();
        let cover = naive_minimum_cover(&sigma, t.rule("book").unwrap());
        let expected = vec![
            Fd::parse("isbn -> title").unwrap(),
            Fd::parse("isbn -> contact").unwrap(),
        ];
        assert!(covers_equivalent(&cover, &expected), "got {cover:?}");
    }

    #[test]
    fn propagated_set_is_closed_under_assured_augmentation() {
        // (isbn, chapterNum) -> chapterName propagated implies the augmented
        // (isbn, chapterNum, name-of-other-assured-attr) variants are found
        // too — here simply check the set contains more than the cover.
        let sigma = example_2_1_keys();
        let rule = example_1_1_refined_chapter();
        let all = naive_propagated_fds(&sigma, &rule);
        let cover = naive_minimum_cover(&sigma, &rule);
        assert!(all.len() >= cover.len());
        assert!(all.contains(&Fd::parse("isbn, chapterNum -> chapterName").unwrap()));
    }

    #[test]
    fn empty_keys_give_empty_cover() {
        let sigma = xmlprop_xmlkeys::KeySet::new();
        let rule = example_1_1_refined_chapter();
        assert!(naive_minimum_cover(&sigma, &rule).is_empty());
    }
}
