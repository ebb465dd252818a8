//! Relation instances, their rows, and databases.

use crate::{Fd, RelationSchema, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A relation instance: a schema plus a bag of rows.
///
/// Shredding XML into relations can produce duplicate rows (the paper's
/// semantics builds a set of field-to-value bindings, but two distinct node
/// bindings may produce equal field values); the instance is therefore kept
/// as a bag, and a reader that wants set semantics drops repeated
/// [`Row`]s itself (their `==` and hash are structural).
///
/// # Storage
///
/// The implicit Cartesian product of Definition 2.2 repeats every
/// upper-level value in each row below it, so an instance is stored
/// dictionary-encoded: a vector of the non-null values its cells name, and
/// the rows as `arity` `u32` codes each ([`Relation::NULL_CODE`] for a
/// null).  A shredder appends each distinct value once
/// ([`Relation::push_value`]) and fills rows by copying codes
/// ([`Relation::push_coded_row`]); [`Relation::insert`] appends a row's
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

    /// SQL-style row equality: every field pair compares equal under
    /// [`Value::sql_eq`].  A row containing a null therefore never matches
    /// anything — itself included — which is the comparison keys and joins
    /// must use.  Structural `==` (nulls equal) remains the right notion
    /// for *duplicate elimination* (SQL `DISTINCT`); see the [`Value`] docs
    /// for the split.
    pub fn sql_eq(&self, other: &Row<'_>) -> bool {
        self.arity() == other.arity() && self.values().zip(other.values()).all(|(a, b)| a.sql_eq(b))
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
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + DoubleEndedIterator {
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

    /// Inserts a row given as its values in schema order, appending the
    /// non-null ones to the dictionary as new entries (no lookup: bulk
    /// producers that repeat values use [`Relation::push_value`] and
    /// [`Relation::push_coded_row`]).
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the schema.
    pub fn insert(&mut self, values: impl IntoIterator<Item = Value>) {
        let start = self.codes.len();
        for value in values {
            let code = self.push_value(value);
            self.codes.push(code);
        }
        assert_eq!(
            self.codes.len() - start,
            self.schema.arity(),
            "row arity does not match schema {}",
            self.schema
        );
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

    /// The value of `attribute` in `row`.
    pub fn value<'t>(&self, row: &Row<'t>, attribute: &str) -> &'t Value {
        let idx = self
            .schema
            .index_of(attribute)
            .unwrap_or_else(|| panic!("unknown attribute `{attribute}` in {}", self.schema));
        row.get(idx)
    }

    /// The values of `row` at the given attributes, in their order.
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
    /// the pinned outputs hold exactly these bytes.  Each dictionary
    /// entry's chars are counted once; lines are laid out in a buffer of
    /// spaces that the cells are copied into, and leave it a few kilobytes
    /// at a time, which is also how [`Display`](fmt::Display) writes the
    /// table into its formatter.
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        Table::new(self).write(&mut out).expect("String write");
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

/// A relation laid out for [`Relation::to_table_string`]: each distinct
/// cell's text and width in chars, counted once, and the column widths.
struct Table<'a> {
    relation: &'a Relation,
    /// The dictionary's cells by code, then `NULL`, where every code past
    /// the dictionary (the null code) lands.
    cells: Vec<(&'a str, usize)>,
    widths: Vec<usize>,
    /// The length of a line of ASCII cells, the last separator included.
    line_len: usize,
}

impl<'a> Table<'a> {
    fn new(relation: &'a Relation) -> Self {
        let cells: Vec<(&str, usize)> = relation
            .dict
            .iter()
            .map(cell)
            .chain(["NULL"])
            .map(|text| (text, text.chars().count()))
            .collect();
        let mut widths: Vec<usize> = relation
            .schema
            .attributes()
            .iter()
            .map(String::len)
            .collect();
        let mut table = Table {
            relation,
            cells,
            widths: Vec::new(),
            line_len: 0,
        };
        for row in table.rows() {
            for (width, &code) in widths.iter_mut().zip(row) {
                *width = (*width).max(table.cell(code).0.len());
            }
        }
        table.line_len = widths.iter().map(|w| w + 2).sum();
        table.widths = widths;
        table
    }

    fn rows(&self) -> impl Iterator<Item = &'a [u32]> + 'a {
        let Relation { codes, len, .. } = self.relation;
        let arity = self.relation.schema.arity();
        (0..*len).map(move |r| &codes[r * arity..(r + 1) * arity])
    }

    fn cell(&self, code: u32) -> (&'a str, usize) {
        self.cells[(code as usize).min(self.relation.dict.len())]
    }

    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let attributes = self.relation.schema.attributes();
        let mut buf = Vec::new();
        let header = self.lay_out(
            &mut buf,
            attributes.iter().map(|a| (a.as_str(), a.chars().count())),
        );
        buf.resize(buf.len() + header, b'-');
        buf.push(b'\n');
        for row in self.rows() {
            if buf.len() >= CHUNK {
                flush(out, &mut buf)?;
            }
            self.lay_out(&mut buf, row.iter().map(|&code| self.cell(code)));
        }
        flush(out, &mut buf)
    }

    /// Appends `(text, chars)` cells to `buf` as one table line: each cell
    /// padded with spaces to its column's width counted in chars, cells
    /// joined by two spaces, and a newline.  Returns the line's length in
    /// bytes, newline excluded.
    fn lay_out<'s>(
        &self,
        buf: &mut Vec<u8>,
        cells: impl Iterator<Item = (&'s str, usize)>,
    ) -> usize {
        let start = buf.len();
        // Spaces for a line of ASCII cells, which the cells are copied
        // into; a multi-byte cell makes its line longer.
        buf.resize(start + self.line_len, b' ');
        let mut pos = start;
        for ((text, chars), &width) in cells.zip(&self.widths) {
            let next = pos + text.len() + width.saturating_sub(chars) + 2;
            if buf.len() < next {
                buf.resize(next, b' ');
            }
            buf[pos..pos + text.len()].copy_from_slice(text.as_bytes());
            pos = next;
        }
        // The newline takes the place of the last cell's separator.
        buf.truncate(pos.saturating_sub(2).max(start));
        buf.push(b'\n');
        buf.len() - start - 1
    }
}

/// The bytes of table lines gathered before they are written out.
const CHUNK: usize = 8192;

/// Writes `buf`, whole lines of text, to `out` and empties it.
fn flush(out: &mut impl fmt::Write, buf: &mut Vec<u8>) -> fmt::Result {
    out.write_str(std::str::from_utf8(buf).expect("whole cells and spaces"))?;
    buf.clear();
    Ok(())
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        Table::new(self).write(f)
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
        r.insert(["XML", "1", "Introduction"].map(Value::from));
        r.insert(["XML", "10", "Conclusion"].map(Value::from));
        r.insert(["XML", "1", "Getting Acquainted"].map(Value::from));
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
        r.insert(["123", "1", "Introduction"].map(Value::from));
        r.insert(["123", "10", "Conclusion"].map(Value::from));
        r.insert(["234", "1", "Getting Acquainted"].map(Value::from));
        let fd = Fd::new(attrs(["isbn", "chapterNum"]), attrs(["chapterName"]));
        assert!(r.satisfies_fd_classical(&fd));
        assert!(r.satisfies_fd_paper(&fd));
    }

    #[test]
    fn paper_null_semantics_condition_one() {
        // X null but Y non-null violates condition (1).
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(vec![Value::Null, Value::text("y")]);
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
        r.insert(vec![Value::text("1"), Value::text("x"), Value::Null]);
        r.insert(vec![Value::text("1"), Value::text("y"), Value::text("z")]);
        let fd = Fd::new(attrs(["a"]), attrs(["b"]));
        assert!(r.satisfies_fd_paper(&fd));
        assert!(!r.satisfies_fd_classical(&fd));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn insert_checks_arity() {
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(["only one"].map(Value::from));
    }

    #[test]
    fn row_sql_eq_never_matches_nulls() {
        let mut r = Relation::new(RelationSchema::new("r", ["a", "b"]));
        r.insert(["1", "x"].map(Value::from));
        r.insert(["1", "x"].map(Value::from));
        r.insert(vec![Value::text("1"), Value::Null]);
        let (plain, same, with_null) = (r.row(0), r.row(1), r.row(2));
        assert!(plain.sql_eq(&same));
        assert!(!plain.sql_eq(&with_null));
        // A null-bearing row does not even match itself…
        assert!(!with_null.sql_eq(&with_null));
        // …although structural equality (duplicate detection) says it does.
        assert_eq!(with_null, r.clone().row(2));
        // Arity mismatch is simply unequal, not a panic.
        let mut narrow = Relation::new(RelationSchema::new("s", ["a"]));
        narrow.insert(["1"].map(Value::from));
        assert!(!plain.sql_eq(&narrow.row(0)));
    }

    #[test]
    fn rows_deduplicate_structurally_like_sql_distinct() {
        use std::collections::HashSet;
        let schema = RelationSchema::new("r", ["a"]);
        let mut r = Relation::new(schema);
        r.insert(vec![Value::Null]);
        r.insert(vec![Value::Null]);
        // DISTINCT is structural: repeated NULL rows collapse even though
        // sql_eq would call them unequal.
        assert_eq!(r.rows().collect::<HashSet<_>>().len(), 1);
        let mut dup = chapter_relation();
        dup.insert(["XML", "1", "Introduction"].map(Value::from));
        assert_eq!(dup.len(), 4);
        assert_eq!(dup.rows().collect::<HashSet<_>>().len(), 3);
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
        r.insert(vec![Value::text("é"), Value::Null]);
        assert_eq!(r.to_table_string(), "a   b   \n--------\né   NULL\n");
        assert_eq!(r.to_table_string(), oracle::to_table_string(&r));
        let empty = Relation::new(RelationSchema::new("z", Vec::<String>::new()));
        assert_eq!(empty.to_table_string(), "\n\n");
    }

    #[test]
    fn long_cells_widen_their_columns_and_the_rule() {
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(vec![Value::text("x".repeat(150)), Value::text("y")]);
        r.insert(vec![Value::text("z"), Value::text("w".repeat(70))]);
        assert_eq!(r.to_table_string(), oracle::to_table_string(&r));
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
                        relation.insert(values);
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
                r.insert(row.clone());
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

        /// The rows of `r` with repeats dropped through a hash set of
        /// [`Row`] views, first occurrences in order.
        fn distinct_rows(r: &Relation) -> Vec<Row<'_>> {
            let mut seen = std::collections::HashSet::new();
            r.rows().filter(|row| seen.insert(*row)).collect()
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
            /// padding), and zero-arity schemas; `Display` writes the same
            /// table under the schema line.
            #[test]
            fn table_rendering_matches_the_oracle(r in relation()) {
                let table = oracle::to_table_string(&r);
                prop_assert_eq!(r.to_table_string(), table.clone());
                prop_assert_eq!(r.to_string(), format!("{}\n{table}", r.schema()));
            }

            /// The encoding never shows: an instance built through
            /// `insert` and one built from shared dictionary entries are
            /// equal, render the same bytes, hash their rows alike (so
            /// both deduplicate to the same rows) and agree on every FD;
            /// changing one cell makes them differ.
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
                let distinct = distinct_rows(&by_code);
                prop_assert_eq!(&distinct_rows(&by_tuple), &distinct);
                prop_assert_eq!(distinct.len(), first_seen.len());
                for (row, expected) in distinct.iter().zip(first_seen) {
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
