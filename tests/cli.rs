//! Smoke tests for the `xmlprop-cli` binary over the sample data files in
//! `examples/data/`.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xmlprop-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to launch xmlprop-cli")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).to_string()
}

#[test]
fn validate_reports_all_keys_ok() {
    let out = run(&[
        "validate",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.matches("[ok]").count(), 7);
    assert!(!text.contains("[FAIL]"));
}

#[test]
fn propagate_answers_both_ways() {
    let positive = run(&[
        "propagate",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "chapter",
        "inBook, number -> name",
    ]);
    assert!(positive.status.success());
    assert!(stdout(&positive).contains("GUARANTEED"));

    let negative = run(&[
        "propagate",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "chapter",
        "number -> name",
    ]);
    assert!(
        !negative.status.success(),
        "non-propagated FD must exit non-zero"
    );
    assert!(stdout(&negative).contains("NOT GUARANTEED"));
}

#[test]
fn cover_prints_the_example_3_1_cover() {
    let out = run(&[
        "cover",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "U",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 4);
    assert!(text.contains("bookIsbn -> bookTitle"));
    assert!(text.contains("bookIsbn, chapNum, secNum -> secName"));
}

#[test]
fn refine_emits_sql() {
    let out = run(&[
        "refine",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "U",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("CREATE TABLE"));
    assert!(text.contains("PRIMARY KEY"));
    assert!(text.contains("-- BCNF decomposition"));
    assert!(text.contains("-- 3NF synthesis"));
}

#[test]
fn shred_prints_the_chapter_instance() {
    let out = run(&[
        "shred",
        "examples/data/fig1.xml",
        "examples/data/book_rules.txt",
        "chapter",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Getting Acquainted"));
    assert!(text.contains("inBook"));
}

#[test]
fn import_xsd_converts_keys() {
    let out = run(&["import-xsd", "examples/data/book_schema.xsd"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("bookIsbn"));
    assert!(text.contains("@isbn"));
}

#[test]
fn query_runs_the_keyed_join_one_shot() {
    let out = run(&[
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "select U.chapName, chapter.name from U join chapter on bookIsbn = inBook and chapNum = number",
    ]);
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("[key lookup]"), "got: {text}");
    assert!(text.contains("(3 rows)"), "got: {text}");
}

/// Degenerate query shapes stay well-formed: a zero-attribute projection
/// prints no table but a row count, and a no-match filter prints an empty
/// table with `(0 rows)` — both exit 0.
#[test]
fn query_degenerate_shapes_are_well_formed() {
    let empty_select = run(&[
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "select from chapter",
    ]);
    assert!(empty_select.status.success());
    assert!(stdout(&empty_select).contains("(1 row)"));

    let no_match = run(&[
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "select title from book where isbn = '999'",
    ]);
    assert!(no_match.status.success());
    assert!(
        stdout(&no_match).contains("(0 rows)"),
        "got: {}",
        stdout(&no_match)
    );
}

/// Query errors ride the shared error table: a syntax error and an unknown
/// relation both exit 2 with the table's origin prefixes.
#[test]
fn query_errors_share_the_error_table() {
    let parse = run(&[
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "selec oops",
    ]);
    assert_eq!(parse.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&parse.stderr).contains("query:"));

    let relation = run(&[
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "select x from nosuchrelation",
    ]);
    assert_eq!(relation.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&relation.stderr).contains("no rule for relation"));
}

#[test]
fn unknown_subcommand_fails_with_guidance() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&[
        "validate",
        "no/such/file.xml",
        "examples/data/book_keys.txt",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    // Every subcommand and flag; the in-binary unit test pins the full
    // table, this smokes the actual `help` output end to end.
    for token in [
        "validate",
        "propagate",
        "cover",
        "refine",
        "shred",
        "mutate",
        "query",
        "serve",
        "import-xsd",
        "help",
        "--jobs",
        "--stream",
        "--addr",
        "--script",
        "--read-timeout-ms",
        "--request-deadline-ms",
        "--shed-wait-ms",
        "--drain-ms",
        "--faults",
        "--fault-seed",
    ] {
        assert!(text.contains(token), "help is missing `{token}`:\n{text}");
    }
}

// ---------------------------------------------------------------------
// Batch (corpus-directory) modes
// ---------------------------------------------------------------------

/// A scratch corpus directory, removed on drop.
struct CorpusDir(std::path::PathBuf);

impl CorpusDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xmlprop-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        CorpusDir(dir)
    }

    fn write(&self, name: &str, content: &str) {
        std::fs::write(self.0.join(name), content).expect("write corpus file");
    }

    fn copy_fig1(&self, name: &str) {
        let fig1 = format!("{}/examples/data/fig1.xml", env!("CARGO_MANIFEST_DIR"));
        std::fs::copy(fig1, self.0.join(name)).expect("copy fig1");
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for CorpusDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn batch_validate_processes_a_directory() {
    let dir = CorpusDir::new("batch-validate");
    dir.copy_fig1("a.xml");
    dir.copy_fig1("b.xml");
    let out = run(&[
        "validate",
        "--jobs",
        "2",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("[ok]   a.xml"));
    assert!(text.contains("[ok]   b.xml"));
    assert!(text.contains("2 documents: 2 ok"));
}

#[test]
fn batch_validate_reports_malformed_files_and_keeps_going() {
    let dir = CorpusDir::new("batch-validate-malformed");
    dir.copy_fig1("a.xml");
    dir.write("broken.xml", "<unclosed");
    dir.copy_fig1("z.xml");
    let out = run(&[
        "validate",
        "--jobs=2",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    // The malformed file makes the batch fail overall (exit 1, not the
    // usage-error 2) but every other file is still processed.
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("[ok]   a.xml"));
    assert!(text.contains("[ok]   z.xml"));
    assert!(
        text.contains("[SKIP] broken.xml:"),
        "the failing file must be named: {text}"
    );
    assert!(text.contains("1 unparseable"));
}

#[test]
fn batch_validate_flags_violating_documents_by_name() {
    let dir = CorpusDir::new("batch-validate-violations");
    dir.copy_fig1("good.xml");
    dir.write("dup.xml", r#"<db><book isbn="1"/><book isbn="1"/></db>"#);
    let out = run(&["validate", dir.path(), "examples/data/book_keys.txt"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("[FAIL] dup.xml"));
    assert!(text.contains("[ok]   good.xml"));
}

#[test]
fn batch_shred_reports_per_file_tuple_counts() {
    let dir = CorpusDir::new("batch-shred");
    dir.copy_fig1("a.xml");
    dir.copy_fig1("b.xml");
    let out = run(&[
        "shred",
        "--jobs",
        "2",
        dir.path(),
        "examples/data/book_rules.txt",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("a.xml: "));
    assert!(text.contains("b.xml: "));
    assert!(text.contains("book: 2"));
    assert!(text.contains("2 documents shredded"));
}

#[test]
fn batch_shred_with_a_relation_filter_counts_only_that_relation() {
    let dir = CorpusDir::new("batch-shred-filter");
    dir.copy_fig1("a.xml");
    let out = run(&[
        "shred",
        dir.path(),
        "examples/data/book_rules.txt",
        "chapter",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    // Only the requested relation is shredded and counted: fig1 has 3
    // chapter tuples, and the summary total must agree with the per-file
    // line instead of summing relations the user filtered out.
    assert!(text.contains("a.xml: chapter: 3"), "{text}");
    assert!(!text.contains("book:"), "{text}");
    assert!(text.contains("3 tuples total"), "{text}");

    let unknown = run(&["shred", dir.path(), "examples/data/book_rules.txt", "nope"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("no rule for relation"));
}

#[test]
fn batch_stream_matches_the_dom_batch_and_names_malformed_files() {
    let dir = CorpusDir::new("batch-stream");
    dir.copy_fig1("a.xml");
    dir.write("broken.xml", "<unclosed");
    dir.write("dup.xml", r#"<db><book isbn="1"/><book isbn="1"/></db>"#);
    let stream = run(&[
        "validate",
        "--stream",
        "--jobs",
        "2",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    let dom = run(&[
        "validate",
        "--jobs",
        "2",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    assert_eq!(stream.status.code(), Some(1), "{}", stdout(&stream));
    assert_eq!(
        stdout(&stream),
        stdout(&dom),
        "--stream must render the exact DOM batch bytes"
    );
    let text = stdout(&stream);
    assert!(text.contains("[ok]   a.xml"));
    assert!(text.contains("[FAIL] dup.xml"));
    assert!(
        text.contains("[SKIP] broken.xml:"),
        "the failing file must be named: {text}"
    );
    assert!(text.contains("1 unparseable"));

    let stream = run(&[
        "shred",
        "--stream",
        dir.path(),
        "examples/data/book_rules.txt",
        "chapter",
    ]);
    let dom = run(&[
        "shred",
        dir.path(),
        "examples/data/book_rules.txt",
        "chapter",
    ]);
    assert_eq!(stream.status.code(), Some(1), "{}", stdout(&stream));
    assert_eq!(stdout(&stream), stdout(&dom));
    assert!(stdout(&stream).contains("a.xml: chapter: 3"));
}

/// A key whose target path has 130 steps does not fit the stream matcher;
/// `validate --stream` checks it on the parsed tree and prints the DOM
/// bytes instead of panicking.
#[test]
fn validate_stream_checks_keys_too_long_to_stream_on_the_tree() {
    let dir = CorpusDir::new("long-key");
    let target = vec!["a"; 130].join("/");
    dir.write("keys.txt", &format!("K1: (ε, ({target}, {{}}))\n"));
    dir.write("doc.xml", "<r><a/></r>");
    let keys = format!("{}/keys.txt", dir.path());
    let doc = format!("{}/doc.xml", dir.path());
    let stream = run(&["validate", "--stream", &doc, &keys]);
    let dom = run(&["validate", &doc, &keys]);
    assert_eq!(
        stream.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&stream.stderr)
    );
    assert_eq!(stdout(&stream), stdout(&dom));
    assert!(stdout(&stream).starts_with("[ok]"), "{}", stdout(&stream));
}

#[test]
fn batch_over_an_empty_directory_is_a_clean_no_op() {
    let dir = CorpusDir::new("batch-empty");
    let out = run(&["validate", dir.path(), "examples/data/book_keys.txt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no *.xml documents"));
    let out = run(&["shred", dir.path(), "examples/data/book_rules.txt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no *.xml documents"));
}

// ---------------------------------------------------------------------
// Incremental mutation (`mutate`)
// ---------------------------------------------------------------------

/// Writes a small predictable document plus keys/rules for mutate tests:
/// nodes are `n0`=db, `n1`=book, `n2`=@isbn, `n3`=title, `n4`=text.
fn mutate_fixture(dir: &CorpusDir) -> [String; 3] {
    dir.write(
        "m.xml",
        r#"<db><book isbn="1"><title>A</title></book></db>"#,
    );
    dir.write("m.keys", "K1: (\u{3b5}, (//book, {@isbn}))\n");
    dir.write(
        "m.rules",
        "rule book(isbn, title) { xb := xr//book; xi := xb/@isbn; \
         xt := xb/title; isbn := value(xi); title := value(xt); }\n",
    );
    ["m.xml", "m.keys", "m.rules"].map(|n| dir.0.join(n).to_str().unwrap().to_string())
}

#[test]
fn mutate_applies_edits_and_reports_incremental_effects() {
    let dir = CorpusDir::new("mutate-ok");
    let [doc, keys, rules] = mutate_fixture(&dir);
    dir.write(
        "ok.edits",
        "# grow then violate\n\
         settext n2 9\n\
         insert n0 1 <book isbn=\"9\"><title>B</title></book>\n",
    );
    let script = dir.0.join("ok.edits");
    let out = run(&["mutate", &doc, &keys, &rules, script.to_str().unwrap()]);
    // The final document violates K1, so the verdict exit code is 1.
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("settext n2 -> 5 nodes, 0 violations"),
        "{text}"
    );
    assert!(
        text.contains("insert n0 1 -> 9 nodes, 1 violations, tuples +1 -0"),
        "{text}"
    );
    assert!(text.contains("share key value (9)"), "{text}");
    assert!(
        text.contains("2 edits applied: 9 nodes, 1 violations"),
        "{text}"
    );
}

#[test]
fn mutate_reports_net_tuple_deltas_for_block_shredded_rules() {
    // Removing one of three chapters re-shreds the book's block of the
    // chapter rule; only the removed chapter's row may be reported.
    let dir = CorpusDir::new("mutate-net");
    let rules = std::fs::read_to_string("examples/data/book_rules.txt").unwrap();
    let start = rules.find("rule chapter").unwrap();
    let end = start + rules[start..].find("\n}").unwrap() + 2;
    dir.write("chapter.rules", &rules[start..end]);
    // n5, n9 and n13 are the chapters.
    dir.write(
        "b.xml",
        r#"<db><book isbn="1"><title>T</title><chapter number="1"><name>A</name></chapter><chapter number="2"><name>B</name></chapter><chapter number="3"><name>C</name></chapter></book></db>"#,
    );
    dir.write("remove.edits", "remove n9\n");
    let path = |n: &str| dir.0.join(n).to_str().unwrap().to_string();
    let out = run(&[
        "mutate",
        &path("b.xml"),
        "examples/data/book_keys.txt",
        &path("chapter.rules"),
        &path("remove.edits"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("remove n9 -> 13 nodes, 0 violations, tuples +0 -1"),
        "{text}"
    );
}

#[test]
fn mutate_rejects_bad_node_ids_positions_and_malformed_lines() {
    let dir = CorpusDir::new("mutate-bad");
    let [doc, keys, rules] = mutate_fixture(&dir);
    for (name, script, needle) in [
        // Semantic errors carry the script line as their origin.
        ("unknown.edits", "remove n99\n", "unknown or detached node"),
        ("oob.edits", "insert n0 7 <x/>\n", "out of range"),
        ("root.edits", "remove n0\n", "document root"),
        // Parse errors: malformed verb, node id, fragment.
        ("verb.edits", "frobnicate n1\n", "unknown edit verb"),
        ("nodeid.edits", "settext book5 x\n", "not a node id"),
        ("frag.edits", "insert n0 0 <unclosed\n", "fragment"),
    ] {
        dir.write(name, script);
        let path = dir.0.join(name);
        let out = run(&["mutate", &doc, &keys, &rules, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            err.contains(&format!("{}:1: ", path.to_str().unwrap())),
            "{name}: origin missing in {err}"
        );
        assert!(err.contains(needle), "{name}: {err}");
    }
}

#[test]
fn mutate_rejects_inserts_that_put_attributes_after_content() {
    // In memory such a tree would print `(note:(S:n), @isbn:1, …)`, a
    // reparse of its XML `(@isbn:1, note:(S:n), …)`.
    let dir = CorpusDir::new("mutate-attr-order");
    let [doc, keys, rules] = mutate_fixture(&dir);
    for (name, position, fragment) in [
        ("content-first.edits", 0, "<note>n</note>"),
        ("text-first.edits", 0, "n"),
        ("attribute-last.edits", 2, "@lang=en"),
    ] {
        dir.write(name, &format!("insert n1 {position} {fragment}\n"));
        let path = dir.0.join(name);
        let out = run(&["mutate", &doc, &keys, &rules, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        let want = format!(
            "{}:1: position {position} under n1 would put an attribute after element or text content",
            path.to_str().unwrap()
        );
        assert!(err.contains(&want), "{name}: {err}");
    }
    // Right after the attribute, content is accepted.
    dir.write("ok.edits", "insert n1 1 <note>n</note>\n");
    let path = dir.0.join("ok.edits");
    let out = run(&["mutate", &doc, &keys, &rules, path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn mutate_usage_and_missing_script_are_clean_errors() {
    let out = run(&["mutate", "examples/data/fig1.xml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: mutate"));

    let out = run(&[
        "mutate",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
        "no/such/script.edits",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn jobs_zero_is_rejected_with_a_clear_error() {
    let dir = CorpusDir::new("jobs-zero");
    dir.copy_fig1("a.xml");
    let out = run(&[
        "validate",
        "--jobs",
        "0",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        err.contains("--jobs") && err.contains("at least 1"),
        "unhelpful error: {err}"
    );
}

#[test]
fn jobs_on_a_single_document_is_noted_not_ignored() {
    let out = run(&[
        "validate",
        "--jobs",
        "4",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--jobs only affects directory batches"),
        "silently ignoring --jobs misleads users about parallelism"
    );
}

#[test]
fn absurd_jobs_values_are_rejected_with_a_clear_error() {
    let dir = CorpusDir::new("jobs-absurd");
    dir.copy_fig1("a.xml");
    for bad in ["100000", "banana", "-3"] {
        let out = run(&[
            "shred",
            "--jobs",
            bad,
            dir.path(),
            "examples/data/book_rules.txt",
        ]);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            err.contains("exceeds the maximum") || err.contains("positive integer"),
            "unhelpful error for --jobs {bad}: {err}"
        );
    }
}

#[test]
fn serve_shares_the_batch_jobs_validation_path() {
    // `--jobs 0` must produce the identical diagnostic and exit code from
    // `serve` and from a batch command: one jobs path, one error table.
    let serve = run(&[
        "serve",
        "--jobs",
        "0",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
    ]);
    assert_eq!(serve.status.code(), Some(2));
    let serve_err = String::from_utf8_lossy(&serve.stderr).to_string();
    assert!(
        serve_err.contains("--jobs") && serve_err.contains("at least 1"),
        "unhelpful error: {serve_err}"
    );

    let dir = CorpusDir::new("serve-jobs-zero");
    dir.copy_fig1("a.xml");
    let batch = run(&[
        "validate",
        "--jobs",
        "0",
        dir.path(),
        "examples/data/book_keys.txt",
    ]);
    assert_eq!(batch.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&batch.stderr),
        serve_err,
        "serve and batch must word the --jobs rejection identically"
    );
}

#[test]
fn serve_usage_and_missing_files_are_clean_errors() {
    let out = run(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: serve"));

    let out = run(&["serve", "no/such/keys.txt", "examples/data/book_rules.txt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = run(&[
        "serve",
        "--script",
        "no/such/session.txt",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Two rules that populate one relation, `book`: the second would shadow
/// the first in every shredded database.
const DUPLICATE_BOOK_RULES: &str = "\
rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }
rule book(title) { xb := xr//book; xt := xb/title; title := value(xt); }
";

#[test]
fn a_relation_defined_by_two_rules_is_a_parse_error() {
    let dir = CorpusDir::new("duplicate-relation");
    dir.write("rules.txt", DUPLICATE_BOOK_RULES);
    let rules = format!("{}/rules.txt", dir.path());
    for command in [
        ["shred", "examples/data/fig1.xml"],
        ["cover", "examples/data/book_keys.txt"],
    ] {
        let args = [command[0], command[1], &rules, "book"];
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("relation `book` is defined by more than one rule"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn serve_accepts_a_fault_schedule_in_every_build() {
    // A schedule that never fires leaves the scripted session byte-equal
    // to its golden transcript.
    let out = run(&[
        "serve",
        "--faults",
        "conn.read=0%error",
        "--script",
        "examples/data/server_session.txt",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
    ]);
    assert!(
        out.status.success(),
        "serve --faults failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = format!(
        "{}/examples/data/expected/serve_session.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_eq!(stdout(&out), std::fs::read_to_string(golden).unwrap());
}

#[test]
fn serve_refuses_panic_outside_a_handler_point() {
    let out = run(&[
        "serve",
        "--faults",
        "conn.read=10%panic",
        "--script",
        "examples/data/server_session.txt",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`panic` pairs only"), "{err}");
}

#[test]
fn serve_refuses_unknown_fault_points() {
    // A misspelt point would otherwise be checked nowhere and test nothing.
    for spec in ["handle.frobnicate=100%panic", "conn.raed=100%error"] {
        let out = run(&[
            "serve",
            "--faults",
            spec,
            "--script",
            "examples/data/server_session.txt",
            "examples/data/book_keys.txt",
            "examples/data/book_rules.txt",
        ]);
        assert_eq!(out.status.code(), Some(2), "{spec}");
        assert!(stdout(&out).is_empty(), "{spec}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        let point = spec.split('=').next().unwrap();
        assert!(
            err.contains(&format!("unknown fault point `{point}`")),
            "{spec}: {err}"
        );
    }
}

#[test]
fn serve_takes_option_values_in_both_forms() {
    let golden = std::fs::read_to_string(format!(
        "{}/examples/data/expected/serve_session.txt",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    for form in [&["--shed-wait-ms=50"][..], &["--shed-wait-ms", "50"]] {
        let mut args = vec!["serve"];
        args.extend_from_slice(form);
        args.extend_from_slice(&[
            "--script",
            "examples/data/server_session.txt",
            "examples/data/book_keys.txt",
            "examples/data/book_rules.txt",
        ]);
        let out = run(&args);
        assert!(
            out.status.success(),
            "{form:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(stdout(&out), golden, "{form:?}");
    }
}

#[test]
fn an_option_another_command_declares_is_unknown() {
    let out = run(&[
        "validate",
        "--addr",
        "x",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unknown option `--addr`\n"
    );
}
