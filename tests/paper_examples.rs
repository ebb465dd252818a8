//! End-to-end reproduction of every worked example in the paper, exercising
//! the crates together exactly the way the text does.

use xmlprop::core::{
    check_declared_keys, minimum_cover, naive_minimum_cover, propagation, refine, GMinimumCover,
};
use xmlprop::prelude::*;
use xmlprop::reldb::{attrs, covers_equivalent, is_bcnf};
use xmlprop::xmlkeys::{example_2_1_keys, satisfies, satisfies_all};
use xmlprop::xmlpath::CompiledExpr;
use xmlprop::xmltransform::sample as tsample;
use xmlprop::xmltree::sample::fig1;

fn fd(s: &str) -> Fd {
    s.parse().unwrap()
}

/// Example 1.1: the initial design is violated by the Fig. 1 data; the
/// refined design holds on the data *and* is guaranteed by the keys.
#[test]
fn example_1_1_end_to_end() {
    let doc = fig1();
    let sigma = example_2_1_keys();

    // Fig. 2(a): the initial design and its violated key.
    let initial = tsample::example_1_1_initial_chapter();
    let instance = initial.shred(&doc);
    assert_eq!(instance.len(), 3);
    assert!(!instance.satisfies_fd_paper(&fd("bookTitle, chapterNum -> chapterName")));

    // Fig. 2(b): the refined design holds on this particular data set...
    let refined = tsample::example_1_1_refined_chapter();
    let instance = refined.shred(&doc);
    assert!(instance.satisfies_fd_paper(&fd("isbn, chapterNum -> chapterName")));

    // ...and, unlike the initial one, is guaranteed for every future import.
    let report = check_declared_keys(
        &sigma,
        &Transformation::new(vec![refined]),
        [("Chapter", ["isbn", "chapterNum"])],
    );
    assert!(report.all_guaranteed());
    let report = check_declared_keys(
        &sigma,
        &Transformation::new(vec![initial]),
        [("Chapter", ["bookTitle", "chapterNum"])],
    );
    assert!(!report.all_guaranteed());
}

/// Example 1.2: the de-novo design over Chapter(isbn, bookTitle, author,
/// chapterNum, chapterName): minimum cover and BCNF decomposition as printed.
#[test]
fn example_1_2_refinement() {
    let sigma = example_2_1_keys();
    let rule = xmlprop::xmltransform::parse_single_rule(
        "rule Chapter(isbn, bookTitle, author, chapterNum, chapterName) {
            b := xr//book;
            i := b/@isbn;
            t := b/title;
            a := b/author;
            an := a/name;
            c := b/chapter;
            n := c/@number;
            m := c/name;
            isbn := value(i);
            bookTitle := value(t);
            author := value(an);
            chapterNum := value(n);
            chapterName := value(m);
        }",
    )
    .unwrap();
    let design = refine(&sigma, &rule);
    let expected = vec![
        fd("isbn -> bookTitle"),
        fd("isbn, chapterNum -> chapterName"),
    ];
    assert!(
        covers_equivalent(&design.cover, &expected),
        "{:?}",
        design.cover
    );

    // The printed BCNF decomposition: Book(isbn, bookTitle),
    // Chapter(isbn, chapterNum, chapterName), Author(isbn, author) — the
    // author fragment may additionally carry chapterNum depending on how the
    // lossless split orders violations, but every fragment must be in BCNF
    // and the book/chapter fragments must match exactly.
    let sets = design.bcnf.attribute_sets();
    assert!(sets.contains(&attrs(["isbn", "bookTitle"])), "{sets:?}");
    assert!(
        sets.contains(&attrs(["isbn", "chapterNum", "chapterName"])),
        "{sets:?}"
    );
    for fragment in &design.bcnf.relations {
        assert!(is_bcnf(&fragment.schema.attribute_set(), &design.cover));
    }
    // isbn -> author must not be derivable (a book may have several authors).
    assert!(!xmlprop::reldb::implies(
        &design.cover,
        &fd("isbn -> author")
    ));
}

/// Example 2.2 / 2.3: path evaluation cardinalities and key satisfaction on
/// the Fig. 1 tree.
#[test]
fn examples_2_2_and_2_3() {
    let doc = fig1();
    let count = |p: &str| {
        let mut universe = LabelUniverse::new();
        let expr = CompiledExpr::compile(&p.parse::<PathExpr>().unwrap(), &mut universe);
        let index = DocIndex::build(&doc, &mut universe);
        expr.evaluate(&index, doc.root()).len()
    };
    assert_eq!(count("//book"), 2);
    assert_eq!(count("//@number"), 5);
    assert_eq!(count("//book/chapter"), 3);
    let sigma = example_2_1_keys();
    assert!(satisfies_all(&doc, &sigma));
    for key in sigma.iter() {
        assert!(satisfies(&doc, key), "{key}");
    }
}

/// Example 2.5: the section rule's instance over Fig. 1.
#[test]
fn example_2_5_shredding() {
    let t = tsample::example_2_4_transformation();
    let rel = t.rule("section").unwrap().shred(&fig1());
    let complete: Vec<Vec<String>> = rel
        .rows()
        .filter(|r| !r.has_null())
        .map(|r| r.values().map(|v| v.to_string()).collect())
        .collect();
    assert_eq!(
        complete,
        vec![
            vec!["1".to_string(), "1".to_string(), "Fundamentals".to_string()],
            vec!["1".to_string(), "2".to_string(), "Attributes".to_string()],
        ]
    );
}

/// Example 4.1: transitive key sets.
#[test]
fn example_4_1_transitive_sets() {
    let sigma = example_2_1_keys();
    let k1 = sigma.get("K1").unwrap().clone();
    let k2 = sigma.get("K2").unwrap().clone();
    assert!(KeySet::from_keys(vec![k1, k2.clone()]).is_transitive());
    assert!(!KeySet::from_keys(vec![k2]).is_transitive());
}

/// Example 4.2: both propagation verdicts.
#[test]
fn example_4_2_propagation() {
    let sigma = example_2_1_keys();
    let t = tsample::example_2_4_transformation();
    assert!(propagation(
        &sigma,
        t.rule("book").unwrap(),
        &fd("isbn -> contact")
    ));
    assert!(!propagation(
        &sigma,
        t.rule("section").unwrap(),
        &fd("inChapt, number -> name")
    ));
}

/// Example 3.1 / 5.1: the universal-relation minimum cover, its agreement
/// between the polynomial and naive algorithms, and the BCNF decomposition.
#[test]
fn example_3_1_and_5_1_minimum_cover() {
    let sigma = example_2_1_keys();
    let u = tsample::example_3_1_universal();
    let cover = minimum_cover(&sigma, &u);
    let expected = vec![
        fd("bookIsbn -> bookTitle"),
        fd("bookIsbn -> authContact"),
        fd("bookIsbn, chapNum -> chapName"),
        fd("bookIsbn, chapNum, secNum -> secName"),
    ];
    assert!(covers_equivalent(&cover, &expected), "{cover:?}");
    assert_eq!(cover.len(), 4);

    // The universal relation has eight fields — small enough for the naive
    // exponential algorithm; the two must agree.
    let slow = naive_minimum_cover(&sigma, &u);
    assert!(covers_equivalent(&cover, &slow));

    // GminimumCover answers the same questions as propagation over the cover.
    let checker = GMinimumCover::new(sigma.clone(), u.clone());
    for probe in &expected {
        assert!(checker.check(probe));
        assert!(propagation(&sigma, &u, probe));
    }

    // The decomposition of Example 3.1.
    let design = refine(&sigma, &u);
    let sets = design.bcnf.attribute_sets();
    assert!(
        sets.contains(&attrs(["bookIsbn", "chapNum", "chapName"])),
        "{sets:?}"
    );
    assert!(
        sets.contains(&attrs(["bookIsbn", "chapNum", "secNum", "secName"])),
        "{sets:?}"
    );
}

/// The propagated FDs hold on the actual shredded instance of Fig. 1 under
/// the paper's null-aware FD semantics (soundness sanity check tying all the
/// layers together).
#[test]
fn propagated_fds_hold_on_fig1_universal_instance() {
    let sigma = example_2_1_keys();
    let u = tsample::example_3_1_universal();
    let instance = u.shred(&fig1());
    for fd in minimum_cover(&sigma, &u) {
        assert!(
            instance.satisfies_fd_paper(&fd),
            "{fd} violated on the Fig. 1 instance"
        );
    }
    // And a non-propagated FD is indeed violated by this very instance under
    // classical FD semantics (both books are titled "XML" but have different
    // isbns), demonstrating that the rejection is not overly conservative.
    // (Under the paper's null-aware semantics every tuple of this instance
    // carries some null — missing authors or missing sections — so condition
    // (2) is vacuous there.)
    assert!(!instance.satisfies_fd_classical(&fd("bookTitle -> bookIsbn")));
}
