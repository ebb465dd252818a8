//! Relation instances, tuples and databases.

use crate::{Fd, RelationSchema, Value};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A tuple: one value per attribute of the owning relation's schema, in
/// schema order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values (must match the schema arity of the
    /// relation it is inserted into; [`Relation::insert`] checks this).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// True if any field is null.
    pub fn has_null(&self) -> bool {
        self.values.iter().any(Value::is_null)
    }

    /// SQL-style tuple equality: every field pair compares equal under
    /// [`Value::sql_eq`]. A tuple containing a null therefore never
    /// matches anything — itself included — which is the comparison keys
    /// and joins must use. Structural `==` (nulls equal) remains the right
    /// notion for *duplicate elimination* ([`Relation::distinct`], SQL
    /// `DISTINCT`); see the [`Value`] docs for the split.
    pub fn sql_eq(&self, other: &Tuple) -> bool {
        self.arity() == other.arity()
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .all(|(a, b)| a.sql_eq(b))
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().map(Into::into).collect())
    }
}

/// A relation instance: a schema plus a bag of rows.
///
/// Shredding XML into relations can produce duplicate rows (the paper's
/// semantics builds a set of field-to-value bindings, but two distinct node
/// bindings may produce equal field values); the instance is therefore kept
/// as a bag, with [`Relation::distinct`] available when set semantics is
/// wanted.
///
/// # Storage
///
/// The implicit Cartesian product of Definition 2.2 repeats every
/// upper-level value in each row below it, so an instance is stored
/// dictionary-encoded: a vector of the non-null values its cells name, and
/// the rows as `arity` `u32` codes each ([`Relation::NULL_CODE`] for a
/// null).  A shredder appends each distinct value once
/// ([`Relation::push_value`]) and fills rows by copying codes
/// ([`Relation::push_coded_row`]); [`Relation::insert`] appends a tuple's
/// values as fresh entries without looking them up.  The encoding never
/// shows: [`Relation::rows`] yields [`Row`] views that read through the
/// dictionary, and two instances are `==` iff they have the same schema
/// and the same rows of values in the same order, however each was
/// encoded.
#[derive(Clone)]
pub struct Relation {
    schema: RelationSchema,
    /// The values cells name; a code indexes this vector.
    dict: Vec<Value>,
    /// `arity` codes per row, row after row.
    codes: Vec<u32>,
    /// The number of rows (kept apart from `codes`, which is empty for
    /// every row of a zero-arity relation).
    len: usize,
}

/// One row of a [`Relation`], borrowed: its codes and the dictionary they
/// index.  Equality and hashing are those of its values.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    dict: &'a [Value],
    codes: &'a [u32],
}

/// The value a [`Relation::NULL_CODE`] cell reads as.
static NULL: Value = Value::Null;

impl<'a> Row<'a> {
    /// The value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &'a Value {
        match self.codes[i] {
            Relation::NULL_CODE => &NULL,
            code => &self.dict[code as usize],
        }
    }

    /// The values of the row, in schema order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a Value> + 'a {
        let row = *self;
        (0..row.arity()).map(move |i| row.get(i))
    }

    /// The number of fields.
    pub fn arity(&self) -> usize {
        self.codes.len()
    }

    /// True if any field is null.
    pub fn has_null(&self) -> bool {
        self.codes.contains(&Relation::NULL_CODE)
    }

    /// SQL-style row equality; see [`Tuple::sql_eq`].
    pub fn sql_eq(&self, other: &Row<'_>) -> bool {
        self.arity() == other.arity() && self.values().zip(other.values()).all(|(a, b)| a.sql_eq(b))
    }

    /// The row as an owned tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values().cloned().collect())
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.values().eq(other.values())
    }
}

impl Eq for Row<'_> {}

impl std::hash::Hash for Row<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.arity());
        for value in self.values() {
            value.hash(state);
        }
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl Relation {
    /// The code of a null cell.
    pub const NULL_CODE: u32 = u32::MAX;

    /// Creates an empty instance of the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            dict: Vec::new(),
            codes: Vec::new(),
            len: 0,
        }
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The rows of the relation, in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len).map(|i| self.row(i))
    }

    /// The row at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not less than [`Relation::len`].
    pub fn row(&self, i: usize) -> Row<'_> {
        assert!(i < self.len, "row {i} of a relation with {} rows", self.len);
        let arity = self.schema.arity();
        Row {
            dict: &self.dict,
            codes: &self.codes[i * arity..(i + 1) * arity],
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a tuple, appending its non-null values to the dictionary
    /// as new entries (no lookup: bulk producers that repeat values use
    /// [`Relation::push_value`] and [`Relation::push_coded_row`]).
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity does not match the schema.
    pub fn insert(&mut self, tuple: Tuple) {
        assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "tuple arity does not match schema {}",
            self.schema
        );
        for value in tuple.values {
            let code = self.push_value(value);
            self.codes.push(code);
        }
        self.len += 1;
    }

    /// Appends a value to the dictionary and returns its code, for
    /// [`Relation::push_coded_row`]; a null is not stored and returns
    /// [`Relation::NULL_CODE`].
    pub fn push_value(&mut self, value: Value) -> u32 {
        if value.is_null() {
            return Self::NULL_CODE;
        }
        let code = self.dict.len();
        assert!(
            code < Self::NULL_CODE as usize,
            "a relation dictionary holds fewer than u32::MAX values"
        );
        self.dict.push(value);
        code as u32
    }

    /// Appends a row given as one code per attribute: a code returned by
    /// [`Relation::push_value`] or [`Relation::NULL_CODE`].
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the schema, or a code names
    /// no dictionary entry.
    pub fn push_coded_row(&mut self, codes: &[u32]) {
        assert_eq!(
            codes.len(),
            self.schema.arity(),
            "row arity does not match schema {}",
            self.schema
        );
        assert!(
            codes
                .iter()
                .all(|&code| code == Self::NULL_CODE || (code as usize) < self.dict.len()),
            "row code outside the dictionary of {}",
            self.schema
        );
        self.codes.extend_from_slice(codes);
        self.len += 1;
    }

    /// Returns a copy with duplicate rows removed (order preserved).
    ///
    /// Duplicate detection is *structural*, like SQL `DISTINCT`: two rows
    /// that agree field-by-field collapse even where those fields are
    /// null. This is deliberately not [`Tuple::sql_eq`] — under SQL
    /// comparison semantics a null-bearing row equals nothing and
    /// `DISTINCT` could never remove it, yet SQL (and this engine) still
    /// collapse repeated `NULL` rows when deduplicating.
    pub fn distinct(&self) -> Relation {
        let mut seen = HashSet::with_capacity(self.len);
        let mut out = Relation {
            dict: self.dict.clone(),
            ..Relation::new(self.schema.clone())
        };
        for row in self.rows() {
            if seen.insert(row) {
                out.codes.extend_from_slice(row.codes);
                out.len += 1;
            }
        }
        out
    }

    /// The value of `attribute` in `row`.
    pub fn value<'t>(&self, row: &Row<'t>, attribute: &str) -> &'t Value {
        let idx = self
            .schema
            .index_of(attribute)
            .unwrap_or_else(|| panic!("unknown attribute `{attribute}` in {}", self.schema));
        row.get(idx)
    }

    /// Projection of a row onto a set of attributes (in iteration order of
    /// the given names).
    pub fn project<'a>(
        &self,
        row: &Row<'_>,
        attributes: impl IntoIterator<Item = &'a String>,
    ) -> Vec<Value> {
        self.project_refs(row, attributes)
            .into_iter()
            .cloned()
            .collect()
    }

    /// [`Relation::project`] without cloning the values.
    fn project_refs<'t, 'a>(
        &self,
        row: &Row<'t>,
        attributes: impl IntoIterator<Item = &'a String>,
    ) -> Vec<&'t Value> {
        attributes.into_iter().map(|a| self.value(row, a)).collect()
    }

    /// Classical FD satisfaction, ignoring the null subtleties: any two rows
    /// that agree on `fd.lhs()` (using strict value equality, where nulls
    /// equal nulls) agree on `fd.rhs()`.
    pub fn satisfies_fd_classical(&self, fd: &Fd) -> bool {
        self.fd_holds_over(fd, |_| true)
    }

    /// FD satisfaction under the paper's null semantics (Section 3):
    ///
    /// 1. for any tuple, if the `X` projection contains a null then so does
    ///    the `Y` projection (an incomplete key cannot determine complete
    ///    fields); and
    /// 2. any two tuples that are entirely null-free and agree on `X` agree
    ///    on `Y`.
    pub fn satisfies_fd_paper(&self, fd: &Fd) -> bool {
        // Condition 1.
        for row in self.rows() {
            let x = self.project_refs(&row, fd.lhs());
            let y = self.project_refs(&row, fd.rhs());
            if x.iter().any(|v| v.is_null()) && !y.iter().any(|v| v.is_null()) {
                return false;
            }
        }
        // Condition 2 — over completely null-free tuples only.
        self.fd_holds_over(fd, |row| !row.has_null())
    }

    /// Whether every two rows picked by `keep` that agree on `fd.lhs()`
    /// (nulls equal) agree on `fd.rhs()`.
    fn fd_holds_over(&self, fd: &Fd, keep: impl Fn(&Row<'_>) -> bool) -> bool {
        let mut seen: BTreeMap<Vec<&Value>, Vec<&Value>> = BTreeMap::new();
        for row in self.rows().filter(|row| keep(row)) {
            let key = self.project_refs(&row, fd.lhs());
            let val = self.project_refs(&row, fd.rhs());
            match seen.get(&key) {
                Some(prev) if prev != &val => return false,
                Some(_) => {}
                None => {
                    seen.insert(key, val);
                }
            }
        }
        true
    }

    /// Renders the instance as an aligned text table (Fig. 2 style): the
    /// attribute names, a rule of dashes as long as that header line, then
    /// one line per row (`NULL` for a null), every column separated by two
    /// spaces and padded to its width, the last one included.
    ///
    /// A column's width is its longest cell in *bytes*, but cells are
    /// padded to it in *chars*; for multi-byte text the two differ, and
    /// the pinned outputs hold exactly these bytes.  The table is written
    /// in one pass into one buffer, with no per-cell allocation.
    pub fn to_table_string(&self) -> String {
        let attributes = self.schema.attributes();
        let mut widths: Vec<usize> = attributes.iter().map(String::len).collect();
        for row in self.rows() {
            for (width, value) in widths.iter_mut().zip(row.values()) {
                *width = (*width).max(cell(value).len());
            }
        }
        let line = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1) + 1;
        let mut out = String::with_capacity(line * (self.len + 2));
        push_line(&mut out, &widths, attributes.iter().map(String::as_str));
        let header = out.len() - 1;
        out.extend(std::iter::repeat_n('-', header));
        out.push('\n');
        for row in self.rows() {
            push_line(&mut out, &widths, row.values().map(cell));
        }
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.len == other.len && self.rows().eq(other.rows())
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("rows", &RowsDebug(self))
            .finish()
    }
}

/// Shows a relation's rows as lists of values, not as codes.
struct RowsDebug<'a>(&'a Relation);

impl fmt::Debug for RowsDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.rows()).finish()
    }
}

/// The text a table cell shows for `value`.
fn cell(value: &Value) -> &str {
    value.as_text().unwrap_or("NULL")
}

/// Appends one table line: each cell padded with spaces to its column's
/// width counted in chars, cells joined by two spaces.
fn push_line<'a>(out: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    for (i, (text, &width)) in cells.zip(widths).enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(text);
        out.extend(std::iter::repeat_n(
            ' ',
            width.saturating_sub(text.chars().count()),
        ));
    }
    out.push('\n');
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        f.write_str(&self.to_table_string())
    }
}

/// A database: a collection of relation instances, addressed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation instance.
    pub fn insert(&mut self, relation: Relation) {
        self.relations
            .insert(relation.schema().name().to_string(), relation);
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Iterates over the relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the database holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// The historical table renderer, kept as the test oracle for
/// [`Relation::to_table_string`]: a `format!` per cell and a `join` per
/// line.
#[cfg(test)]
mod oracle {
    use super::Relation;

    pub fn to_table_string(relation: &Relation) -> String {
        let mut widths: Vec<usize> = relation
            .schema()
            .attributes()
            .iter()
            .map(|a| a.len())
            .collect();
        for row in relation.rows() {
            for (i, v) in row.values().enumerate() {
                widths[i] = widths[i].max(v.to_string().len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = relation
            .schema()
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{:width$}", a, width = widths[i]))
            .collect();
        out.push_str(&format!("{}\n", header.join("  ")));
        out.push_str(&format!("{}\n", "-".repeat(header.join("  ").len())));
        for row in relation.rows() {
            let cells: Vec<String> = row
                .values()
                .enumerate()
                .map(|(i, v)| format!("{:width$}", v.to_string(), width = widths[i]))
                .collect();
            out.push_str(&format!("{}\n", cells.join("  ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    fn chapter_relation() -> Relation {
        // Fig. 2(a) of the paper.
        let schema = RelationSchema::new("Chapter", ["bookTitle", "chapterNum", "chapterName"]);
        let mut r = Relation::new(schema);
        r.insert(["XML", "1", "Introduction"].into_iter().collect());
        r.insert(["XML", "10", "Conclusion"].into_iter().collect());
        r.insert(["XML", "1", "Getting Acquainted"].into_iter().collect());
        r
    }

    #[test]
    fn fig2a_violates_its_key() {
        // Example 1.1: (bookTitle, chapterNum) -> chapterName fails on the
        // initial design.
        let r = chapter_relation();
        let fd = Fd::new(attrs(["bookTitle", "chapterNum"]), attrs(["chapterName"]));
        assert!(!r.satisfies_fd_classical(&fd));
        assert!(!r.satisfies_fd_paper(&fd));
    }

    #[test]
    fn fig2b_satisfies_the_refined_key() {
        // Fig. 2(b): isbn replaces bookTitle and the key holds.
        let schema = RelationSchema::new("Chapter", ["isbn", "chapterNum", "chapterName"]);
        let mut r = Relation::new(schema);
        r.insert(["123", "1", "Introduction"].into_iter().collect());
        r.insert(["123", "10", "Conclusion"].into_iter().collect());
        r.insert(["234", "1", "Getting Acquainted"].into_iter().collect());
        let fd = Fd::new(attrs(["isbn", "chapterNum"]), attrs(["chapterName"]));
        assert!(r.satisfies_fd_classical(&fd));
        assert!(r.satisfies_fd_paper(&fd));
    }

    #[test]
    fn paper_null_semantics_condition_one() {
        // X null but Y non-null violates condition (1).
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null, Value::text("y")]));
        let fd = Fd::new(attrs(["a"]), attrs(["b"]));
        assert!(!r.satisfies_fd_paper(&fd));
        // Classical satisfaction does not look at nulls specially: a single
        // tuple can never violate it.
        assert!(r.satisfies_fd_classical(&fd));
    }

    #[test]
    fn paper_null_semantics_ignores_null_tuples_in_condition_two() {
        let schema = RelationSchema::new("r", ["a", "b", "c"]);
        let mut r = Relation::new(schema);
        // Two tuples agree on a but disagree on b; one of them has a null c,
        // so it is exempt from condition (2).
        r.insert(Tuple::new(vec![
            Value::text("1"),
            Value::text("x"),
            Value::Null,
        ]));
        r.insert(Tuple::new(vec![
            Value::text("1"),
            Value::text("y"),
            Value::text("z"),
        ]));
        let fd = Fd::new(attrs(["a"]), attrs(["b"]));
        assert!(r.satisfies_fd_paper(&fd));
        assert!(!r.satisfies_fd_classical(&fd));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn insert_checks_arity() {
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(["only one"].into_iter().collect());
    }

    #[test]
    fn tuple_sql_eq_never_matches_nulls() {
        let plain: Tuple = ["1", "x"].into_iter().collect();
        let same: Tuple = ["1", "x"].into_iter().collect();
        let with_null = Tuple::new(vec![Value::text("1"), Value::Null]);
        assert!(plain.sql_eq(&same));
        assert!(!plain.sql_eq(&with_null));
        // A null-bearing tuple does not even match itself…
        assert!(!with_null.sql_eq(&with_null));
        // …although structural equality (duplicate detection) says it does.
        assert_eq!(with_null, with_null.clone());
        // Arity mismatch is simply unequal, not a panic.
        let short: Tuple = ["1"].into_iter().collect();
        assert!(!plain.sql_eq(&short));
    }

    #[test]
    fn distinct_collapses_null_rows_like_sql_distinct() {
        let schema = RelationSchema::new("r", ["a"]);
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null]));
        r.insert(Tuple::new(vec![Value::Null]));
        // DISTINCT is structural: repeated NULL rows collapse even though
        // sql_eq would call them unequal.
        assert_eq!(r.distinct().len(), 1);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = chapter_relation();
        let mut dup = r.clone();
        dup.insert(["XML", "1", "Introduction"].into_iter().collect());
        assert_eq!(dup.len(), 4);
        assert_eq!(dup.distinct().len(), 3);
        assert_eq!(r.distinct().len(), 3);
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let r = chapter_relation();
        let s = r.to_table_string();
        assert!(s.contains("bookTitle"));
        assert!(s.contains("Getting Acquainted"));
        assert_eq!(s.lines().count(), 2 + r.len());
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert(chapter_relation());
        assert_eq!(db.len(), 1);
        assert!(db.get("Chapter").is_some());
        assert!(db.get("Missing").is_none());
        assert_eq!(db.relations().count(), 1);
    }
    #[test]
    fn table_rendering_pads_by_chars_within_byte_widths() {
        // "é" is 2 bytes and 1 char: the column is 2 bytes wide, and the
        // 1-char cell gets one space of padding, as does `a`.
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::text("é"), Value::Null]));
        assert_eq!(r.to_table_string(), "a   b   \n--------\né   NULL\n");
        assert_eq!(r.to_table_string(), oracle::to_table_string(&r));
        let empty = Relation::new(RelationSchema::new("z", Vec::<String>::new()));
        assert_eq!(empty.to_table_string(), "\n\n");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Distinct attribute names, ASCII and multi-byte.
        const NAMES: [&str; 5] = ["isbn", "é", "名前", "n", "chapterName"];

        fn value() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                Just(Value::text("")),
                Just(Value::text("1")),
                Just(Value::text("NULL")),
                Just(Value::text("Getting Acquainted")),
                Just(Value::text("é")),
                Just(Value::text("naïve café")),
                Just(Value::text("日本語の本")),
                Just(Value::text("🦀x")),
            ]
        }

        fn relation() -> impl Strategy<Value = Relation> {
            (
                0usize..=NAMES.len(),
                0usize..NAMES.len(),
                prop::collection::vec(prop::collection::vec(value(), 5..6), 0..8),
            )
                .prop_map(|(arity, offset, rows)| {
                    let names = (0..arity).map(|i| NAMES[(i + offset) % NAMES.len()]);
                    let mut relation = Relation::new(RelationSchema::new("r", names));
                    for mut values in rows {
                        values.truncate(arity);
                        relation.insert(Tuple::new(values));
                    }
                    relation
                })
        }

        /// Rows of arity 0–4 over a few values, so nulls and repeats are
        /// common.
        fn rows() -> impl Strategy<Value = (usize, Vec<Vec<Value>>)> {
            let value = prop_oneof![
                Just(Value::Null),
                Just(Value::text("")),
                Just(Value::text("a")),
                Just(Value::text("b")),
                Just(Value::text("NULL")),
                Just(Value::text("é")),
            ];
            (
                0usize..=4,
                prop::collection::vec(prop::collection::vec(value, 4..5), 0..31),
            )
                .prop_map(|(arity, mut rows)| {
                    for row in &mut rows {
                        row.truncate(arity);
                    }
                    (arity, rows)
                })
        }

        /// The instance built through `insert`, one fresh dictionary entry
        /// per non-null cell.
        fn inserted(schema: &RelationSchema, rows: &[Vec<Value>]) -> Relation {
            let mut r = Relation::new(schema.clone());
            for row in rows {
                r.insert(Tuple::new(row.clone()));
            }
            r
        }

        /// The same instance built through the coded path: one dictionary
        /// entry per distinct value, entered in reverse order of first
        /// sight after an entry no cell names, and rows as codes.
        fn coded(schema: &RelationSchema, rows: &[Vec<Value>]) -> Relation {
            let mut r = Relation::new(schema.clone());
            r.push_value(Value::text("unused"));
            let mut distinct: Vec<&Value> = Vec::new();
            for value in rows.iter().flatten() {
                if !value.is_null() && !distinct.contains(&value) {
                    distinct.push(value);
                }
            }
            let mut code_of = vec![0; distinct.len()];
            for (i, value) in distinct.iter().enumerate().rev() {
                code_of[i] = r.push_value((*value).clone());
            }
            for row in rows {
                let codes: Vec<u32> = row
                    .iter()
                    .map(|v| match distinct.iter().position(|d| *d == v) {
                        Some(i) => code_of[i],
                        None => Relation::NULL_CODE,
                    })
                    .collect();
                r.push_coded_row(&codes);
            }
            r
        }

        /// The FD whose sides are the attributes picked by two bit masks.
        fn fd_of(schema: &RelationSchema, lhs: u8, rhs: u8) -> Fd {
            let side = |mask: u8| {
                schema
                    .attributes()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, a)| a.clone())
                    .collect()
            };
            Fd::new(side(lhs), side(rhs))
        }

        proptest! {
            /// The one-pass renderer writes the oracle's exact bytes: nulls,
            /// empty strings, multi-byte cells and names (byte widths, char
            /// padding), and zero-arity schemas.
            #[test]
            fn table_rendering_matches_the_oracle(r in relation()) {
                prop_assert_eq!(r.to_table_string(), oracle::to_table_string(&r));
            }

            /// The encoding never shows: an instance built through
            /// `insert` and one built from shared dictionary entries are
            /// equal, render the same bytes, deduplicate to the same rows
            /// and agree on every FD; changing one cell makes them differ.
            #[test]
            fn encodings_of_the_same_rows_agree(
                instance in rows(),
                fds in prop::collection::vec((0u8..16, 0u8..16), 1..5),
                change in (0usize..1000, 0usize..3),
            ) {
                let ((arity, rows), (pick, replacement)) = (instance, change);
                let schema = RelationSchema::new("r", ["a", "b", "c", "d"].into_iter().take(arity));
                let (by_tuple, by_code) = (inserted(&schema, &rows), coded(&schema, &rows));
                prop_assert_eq!(&by_tuple, &by_code);
                prop_assert_eq!(by_tuple.len(), rows.len());
                prop_assert_eq!(by_tuple.to_table_string(), by_code.to_table_string());
                let mut first_seen: Vec<&Vec<Value>> = Vec::new();
                for row in &rows {
                    if !first_seen.contains(&row) {
                        first_seen.push(row);
                    }
                }
                let distinct = by_code.distinct();
                prop_assert_eq!(&by_tuple.distinct(), &distinct);
                prop_assert_eq!(distinct.len(), first_seen.len());
                for (row, expected) in distinct.rows().zip(first_seen) {
                    prop_assert!(row.values().eq(expected.iter()));
                }
                for (lhs, rhs) in fds {
                    let fd = fd_of(&schema, lhs, rhs);
                    prop_assert_eq!(by_tuple.satisfies_fd_classical(&fd), by_code.satisfies_fd_classical(&fd));
                    prop_assert_eq!(by_tuple.satisfies_fd_paper(&fd), by_code.satisfies_fd_paper(&fd));
                }
                if arity > 0 && !rows.is_empty() {
                    let mut changed = rows.clone();
                    let cell = &mut changed[pick % rows.len()][pick % arity];
                    *cell = match (cell.is_null(), replacement) {
                        (true, _) => Value::text("new"),
                        (false, 0) => Value::Null,
                        (false, _) => Value::text(format!("{cell}~")),
                    };
                    prop_assert_ne!(&by_tuple, &coded(&schema, &changed));
                    prop_assert_ne!(&inserted(&schema, &changed), &by_code);
                }
            }
        }
    }
}
