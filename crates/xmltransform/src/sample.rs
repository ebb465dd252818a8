//! The paper's running transformations.
//!
//! * [`example_2_4_transformation`] — the transformation σ of Example 2.4
//!   mapping the Fig. 1 data to the schema
//!   `book(isbn, title, author, contact)`, `chapter(inBook, number, name)`,
//!   `section(inChapt, number, name)`;
//! * [`example_3_1_universal`] — the universal-relation rule `Rule(U)` of
//!   Example 3.1 / Fig. 4;
//! * [`example_1_1_initial_chapter`] — the *initial* (flawed) `Chapter`
//!   design of Example 1.1, keyed on `(bookTitle, chapterNum)`;
//! * [`example_1_1_refined_chapter`] — the refined design keyed on
//!   `(isbn, chapterNum)`.

use crate::{TableRule, Transformation};

/// The transformation σ of Example 2.4 (see Fig. 3 for the table trees of
/// its `book` and `section` rules).
pub fn example_2_4_transformation() -> Transformation {
    Transformation::parse(
        "rule book(isbn, title, author, contact) {
            xa := xr//book;
            x1 := xa/@isbn;
            x2 := xa/title;
            xd := xa/author;
            x3 := xd/name;
            x4 := xd/contact;
            isbn := value(x1);
            title := value(x2);
            author := value(x3);
            contact := value(x4);
        }
        rule chapter(inBook, number, name) {
            yb := xr//book;
            y1 := yb/@isbn;
            yc := yb/chapter;
            y2 := yc/@number;
            y3 := yc/name;
            inBook := value(y1);
            number := value(y2);
            name := value(y3);
        }
        rule section(inChapt, number, name) {
            zc := xr//book/chapter;
            z1 := zc/@number;
            zs := zc/section;
            z2 := zs/@number;
            z3 := zs/name;
            inChapt := value(z1);
            number := value(z2);
            name := value(z3);
        }",
    )
    .expect("the Example 2.4 transformation is well-formed")
}

/// The universal relation `U` and its table rule of Example 3.1 (Fig. 4).
pub fn example_3_1_universal() -> TableRule {
    crate::parse_single_rule(
        "rule U(bookIsbn, bookTitle, bookAuthor, authContact, chapNum, chapName, secNum, secName) {
            xb := xr//book;
            x1 := xb/@isbn;
            x2 := xb/title;
            xa := xb/author;
            x3 := xa/name;
            x4 := xa/contact;
            yc := xb/chapter;
            y1 := yc/@number;
            y2 := yc/name;
            zs := yc/section;
            z1 := zs/@number;
            z2 := zs/name;
            bookIsbn := value(x1);
            bookTitle := value(x2);
            bookAuthor := value(x3);
            authContact := value(x4);
            chapNum := value(y1);
            chapName := value(y2);
            secNum := value(z1);
            secName := value(z2);
        }",
    )
    .expect("the Example 3.1 universal relation rule is well-formed")
}

/// The initial (flawed) `Chapter(bookTitle, chapterNum, chapterName)` design
/// of Example 1.1: chapters are keyed by the book *title*, which two
/// different books may share.
pub fn example_1_1_initial_chapter() -> TableRule {
    crate::parse_single_rule(
        "rule Chapter(bookTitle, chapterNum, chapterName) {
            b := xr//book;
            t := b/title;
            c := b/chapter;
            n := c/@number;
            m := c/name;
            bookTitle := value(t);
            chapterNum := value(n);
            chapterName := value(m);
        }",
    )
    .expect("well-formed")
}

/// The refined `Chapter(isbn, chapterNum, chapterName)` design of
/// Example 1.1 (Fig. 2(b)), keyed by `(isbn, chapterNum)`.
pub fn example_1_1_refined_chapter() -> TableRule {
    crate::parse_single_rule(
        "rule Chapter(isbn, chapterNum, chapterName) {
            b := xr//book;
            i := b/@isbn;
            c := b/chapter;
            n := c/@number;
            m := c/name;
            isbn := value(i);
            chapterNum := value(n);
            chapterName := value(m);
        }",
    )
    .expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlprop_reldb::Fd;
    use xmlprop_xmltree::sample::fig1;

    #[test]
    fn example_2_4_has_three_rules() {
        let t = example_2_4_transformation();
        assert_eq!(t.len(), 3);
        assert!(t.rule("book").is_some());
        assert!(t.rule("chapter").is_some());
        assert!(t.rule("section").is_some());
    }

    #[test]
    fn universal_relation_has_eight_fields_and_depth_four() {
        let u = example_3_1_universal();
        assert_eq!(u.schema().arity(), 8);
        let tree = u.table_tree();
        // xr -> xb -> yc -> zs -> z2 (secName): four edges.
        assert_eq!(tree.depth(), 4);
        let z2 = tree.var("z2").unwrap();
        assert_eq!(
            tree.path_between(crate::VarId::ROOT, z2)
                .unwrap()
                .to_string(),
            "//book/chapter/section/name"
        );
    }

    #[test]
    fn initial_design_fails_its_key_on_fig1() {
        // Example 1.1: the initial design's key (bookTitle, chapterNum) is
        // violated by the Fig. 1 data because both books are titled "XML".
        let rel = example_1_1_initial_chapter().shred(&fig1());
        let key = Fd::parse("bookTitle, chapterNum -> chapterName").unwrap();
        assert!(!rel.satisfies_fd_paper(&key));
    }

    #[test]
    fn refined_design_satisfies_its_key_on_fig1() {
        let rel = example_1_1_refined_chapter().shred(&fig1());
        let key = Fd::parse("isbn, chapterNum -> chapterName").unwrap();
        assert!(rel.satisfies_fd_paper(&key));
        assert_eq!(rel.len(), 3);
    }
}
