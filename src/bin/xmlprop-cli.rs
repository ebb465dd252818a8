//! `xmlprop-cli` — command-line front end for the library.
//!
//! `xmlprop-cli help` prints the synopsis of every subcommand.  It is
//! generated from the one `COMMANDS` table, as are the dispatch, the
//! per-command usage errors and the option parser: in a spec, `[--name]`
//! declares a switch and `[--name VALUE]` an option taking a value, written
//! `--name V` or `--name=V`.  Any other `--` argument is an unknown option
//! (exit 2), and a handler can read only the options its spec declares.
//!
//! *Keys files* contain one key per line in the paper's syntax
//! (`K2: (//book, (chapter, {@number}))`); `#` starts a comment.
//! *Rules files* use the transformation syntax of `xmlprop-xmltransform`
//! (`rule chapter(inBook, number, name) { … }`).
//!
//! When the document argument is a **directory**, `validate` and `shred`
//! switch to batch mode: every `*.xml` file in it (sorted by name, not
//! recursive) is processed through the parallel corpus pipeline over
//! `--jobs` worker threads.  A file that fails to parse is reported by name
//! and the batch continues; the exit code then signals failure without
//! aborting the remaining files.
//!
//! `validate` checks the keys straight off the file's text, without
//! building a document tree; `shred` parses the document.  `--stream` is
//! accepted by both for compatibility and changes nothing.
//!
//! `mutate` opens a document for **incremental revalidation**: it applies
//! an edit script (one `settext`/`remove`/`insert` per line, nodes named
//! by their `n<id>` as printed in violation reports) and after each edit
//! patches the prepared index, the key-validation state and the shredded
//! database in place — reporting per edit the node count, the violation
//! count and the tuple-level insert/delete effect per relation, instead of
//! re-running the whole pipeline per edit.
//!
//! `query` runs one select/project/join query (the `xmlprop-query`
//! grammar) against the relations shredded from a document: the bundle is
//! prepared, the document shredded, and the plan printed alongside the
//! result table — joins on a propagated key execute as hash lookups, shown
//! as `[key lookup]` in the plan line.
//!
//! `serve` keeps the prepared bundle **resident** behind the `xmlprop/1`
//! line protocol (see the `xmlprop-server` crate docs): clients validate,
//! shred, propagate and cover against a shared snapshot, and an admin
//! `reload` hot-swaps a new bundle without blocking readers.  With
//! `--script FILE` the CLI instead starts an ephemeral server, drives the
//! scripted session against it, prints the deterministic transcript and
//! exits — the goldenable mode CI uses.
//!
//! Exit codes: `0` success, `1` domain verdict (violations found,
//! propagation not guaranteed, files skipped), `2` error — every
//! [`xmlprop::Error`] exits 2 from every subcommand, and its
//! [`xmlprop::ErrorKind`] maps onto the same wire code over the server
//! protocol.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use xmlprop::core::refine;
use xmlprop::pipeline::{
    parse_keys_text, parse_rules_text, CorpusBundle, CorpusOptions, DocOutcome, Faults, Jobs,
    PreparedState,
};
use xmlprop::prelude::*;
use xmlprop::server::render;
use xmlprop::server::{parse_script, run_script, Server, ServiceConfig};
use xmlprop::xmlkeys::import_xsd_keys;
use xmlprop::Error;

/// The one subcommand table: name, argument spec, and handler.  The main
/// dispatch, the option parser, the `help` synopsis and every per-command
/// usage error are all generated from it, so the surfaces cannot drift
/// apart — a subcommand cannot exist without a usage line, and a flag
/// cannot be parsed unless its command's spec declares it.
type Handler = fn(&Args) -> Result<bool, Error>;
const COMMANDS: &[(&str, &str, Handler)] = &[
    (
        "validate",
        "[--jobs N] [--stream] <document.xml | dir> <keys.txt>",
        cmd_validate,
    ),
    (
        "propagate",
        "<keys.txt> <rules.txt> <relation> \"X -> A\"",
        cmd_propagate,
    ),
    ("cover", "<keys.txt> <rules.txt> <relation>", cmd_cover),
    ("refine", "<keys.txt> <rules.txt> <relation>", cmd_refine),
    (
        "shred",
        "[--jobs N] [--stream] <document.xml | dir> <rules.txt> [relation]",
        cmd_shred,
    ),
    (
        "mutate",
        "<document.xml> <keys.txt> <rules.txt> <script.edits>",
        cmd_mutate,
    ),
    (
        "query",
        "<document.xml> <keys.txt> <rules.txt> \"<select ...>\"",
        cmd_query,
    ),
    (
        "serve",
        "[--addr HOST:PORT] [--jobs N] [--script FILE] [--read-timeout-ms N] \
         [--request-deadline-ms N] [--shed-wait-ms N] [--drain-ms N] \
         [--faults SPEC] [--fault-seed N] <keys.txt> <rules.txt>",
        cmd_serve,
    ),
    ("import-xsd", "<schema.xsd>", cmd_import_xsd),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print!("{}", usage_text());
            Ok(true)
        }
        Some(cmd) => match COMMANDS.iter().find(|(name, _, _)| *name == cmd) {
            Some(&(name, spec, handler)) => {
                Args::parse(name, spec, &args[1..]).and_then(|args| handler(&args))
            }
            None => Err(Error::usage(format!(
                "unknown subcommand `{cmd}`; try `xmlprop-cli help`"
            ))),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

/// One invocation's arguments, split by its command's spec: `[--name]`
/// declares a switch, `[--name VALUE]` an option taking a value, written
/// `--name V` or `--name=V`.  Any other `--` argument is an unknown
/// option; the rest are positional, in order.
struct Args<'a> {
    cmd: &'static str,
    spec: &'static str,
    /// Each option the spec declares: its name, whether it takes a value,
    /// and the last value given (`""` for a given switch).
    options: Vec<(&'static str, bool, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(cmd: &'static str, spec: &'static str, args: &'a [String]) -> Result<Self, Error> {
        let declared = spec.split('[').filter_map(|part| part.split_once(']'));
        let options = declared
            .filter(|(option, _)| option.starts_with("--"))
            .map(|(option, _)| match option.split_once(' ') {
                Some((name, _)) => (name, true, None),
                None => (option, false, None),
            });
        let mut parsed = Args {
            cmd,
            spec,
            options: options.collect(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                parsed.positional.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let unknown = || Error::usage(format!("unknown option `{arg}`"));
            let option = parsed.options.iter_mut().find(|o| o.0 == name);
            let (_, takes_value, given) = option.ok_or_else(unknown)?;
            *given = match (*takes_value, inline) {
                (false, None) => Some(""),
                (true, Some(value)) => Some(value),
                (true, None) => match iter.next() {
                    Some(value) => Some(value),
                    None => return Err(Error::usage(format!("{name} expects a value"))),
                },
                (false, Some(_)) => return Err(unknown()),
            };
        }
        Ok(parsed)
    }

    /// The last value given for the option `name` (`""` for a switch), or
    /// `None` if it was not given.  Asking for an option the spec does not
    /// declare is a bug, and panics.
    fn value(&self, name: &str) -> Option<&'a str> {
        let option = self.options.iter().find(|o| o.0 == name);
        option
            .unwrap_or_else(|| panic!("`{name}` is not an option of `{}`", self.cmd))
            .2
    }

    /// The `--jobs` value.  This is the **one** jobs path: batch commands
    /// default the `None` to one worker, `serve` to its gate width, and
    /// the `--jobs 0` / over-maximum rejections are identical everywhere.
    fn jobs(&self) -> Result<Option<Jobs>, Error> {
        self.value("--jobs").map(parse_jobs_value).transpose()
    }

    /// The batch width when `path` is a corpus directory, else `None`.
    /// `--jobs` only fans out over directory batches; on a single document
    /// this says so instead of silently ignoring it.
    fn batch_jobs(&self, path: &str) -> Result<Option<Jobs>, Error> {
        let jobs = self.jobs()?;
        if Path::new(path).is_dir() {
            return Ok(Some(jobs.unwrap_or_default()));
        }
        if jobs.is_some_and(|jobs| jobs.get() > 1) {
            eprintln!(
                "note: --jobs only affects directory batches; a single document is processed on one thread"
            );
        }
        Ok(None)
    }

    /// The usage error for this command, generated from [`COMMANDS`] so
    /// the message a failing invocation prints is the same line `help`
    /// shows.
    fn usage(&self) -> Error {
        Error::usage(format!("usage: {} {}", self.cmd, self.spec))
    }
}

/// Greedy word-wrap of a spec string into lines of at most `width`
/// characters, for the `help` synopsis; continuation lines get `indent`.
fn wrap_spec(spec: &str, width: usize, indent: &str) -> String {
    let mut lines: Vec<String> = Vec::new();
    for word in spec.split_whitespace() {
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines.join(&format!("\n{indent}"))
}

fn usage_text() -> String {
    let mut out =
        String::from("xmlprop-cli — XML key propagation to relations (ICDE 2003)\n\nUSAGE:\n");
    for (name, spec, _) in COMMANDS {
        let head = format!("  xmlprop-cli {name:<10} ");
        let indent = " ".repeat(head.len());
        out.push_str(&head);
        out.push_str(&wrap_spec(spec, 52, &indent));
        out.push('\n');
    }
    out.push_str("  xmlprop-cli help\n");
    out.push_str(
        "\nPassing a directory to `validate` or `shred` processes every *.xml\n\
         file in it (sorted by name) through the parallel corpus pipeline\n\
         over N worker threads (default 1).\n\n\
         `validate` checks the keys straight off the file's text through\n\
         the streaming key checker, without building a document tree;\n\
         `shred` always parses the document.  --stream is accepted by both\n\
         for compatibility and changes nothing.\n\n\
         `mutate` applies an edit script (settext/remove/insert lines over\n\
         n<id> node names) to the document, incrementally maintaining the\n\
         index, the key validation and the shredded relations per edit.\n\n\
         `query` shreds the document and runs one select/project/join query\n\
         against the resulting relations; joins equated on a propagated key\n\
         execute as hash lookups ([key lookup] in the printed plan).\n\n\
         `serve` answers validate/shred/propagate/cover/query requests over\n\
         the xmlprop/1 line protocol from a resident prepared bundle\n\
         (default address 127.0.0.1:7878, default 8 connection threads);\n\
         `reload` hot-swaps new keys/rules without blocking readers.  With\n\
         --script the session is self-driven and the transcript printed to\n\
         stdout.  Timeout flags harden the service (read/write timeout,\n\
         per-request deadline, bounded admission wait, shutdown drain\n\
         budget); --faults installs a seeded fault-injection schedule,\n\
         e.g. --faults conn.read=10%delay:2 (the `panic` action pairs\n\
         only with a handle.<verb> point: --faults handle.cover=1%panic)\n",
    );
    out
}

fn parse_jobs_value(value: &str) -> Result<Jobs, Error> {
    value
        .parse()
        .map_err(|e: Error| Error::jobs(format!("--jobs: {e}")))
}

/// The `*.xml` files of a corpus directory, sorted by file name so batch
/// output and document indices are stable across runs and platforms.
fn corpus_files(dir: &str) -> Result<Vec<(String, std::path::PathBuf)>, Error> {
    let unreadable = |e: std::io::Error| Error::io(format!("cannot read directory `{dir}`: {e}"));
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).map_err(unreadable)? {
        let entry = entry.map_err(unreadable)?;
        let path = entry.path();
        let is_xml = path
            .extension()
            .is_some_and(|ext| ext.eq_ignore_ascii_case("xml"));
        if path.is_file() && is_xml {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.push((name, path));
        }
    }
    files.sort();
    Ok(files)
}

fn read(path: &str) -> Result<String, Error> {
    fs::read_to_string(path).map_err(|e| Error::read(path, e))
}

fn load_keys(path: &str) -> Result<KeySet, Error> {
    parse_keys_text(&read(path)?, path)
}

fn load_transformation(path: &str) -> Result<Transformation, Error> {
    parse_rules_text(&read(path)?, path)
}

fn cmd_validate(args: &Args) -> Result<bool, Error> {
    // `--stream` is accepted for compatibility: validation always runs off
    // the text through the streaming key checker.
    let [doc_path, keys_path] = args.positional[..] else {
        return Err(args.usage());
    };
    if let Some(jobs) = args.batch_jobs(doc_path)? {
        return batch_validate(doc_path, keys_path, jobs);
    }
    // The server's renderer against a validation-only bundle: a `validate`
    // request and this one-shot print identical bytes by construction.  No
    // document tree is built unless a key is too long to stream.
    let bundle = CorpusBundle::for_validation(load_keys(keys_path)?);
    let text = read(doc_path)?;
    let (ok, report) =
        render::validate_report_streaming(&bundle, &text, &mut bundle.scratch(), doc_path)?;
    print!("{report}");
    Ok(ok)
}

/// The prepared propagation engine for `relation`'s rule.
fn load_engine(
    keys_path: &str,
    rules_path: &str,
    relation: &str,
) -> Result<PropagationEngine, Error> {
    let sigma = load_keys(keys_path)?;
    let t = load_transformation(rules_path)?;
    let rule = &t.rules()[render::rule_position(&t, relation)?];
    Ok(PropagationEngine::prepare(&sigma, rule))
}

fn cmd_propagate(args: &Args) -> Result<bool, Error> {
    let [keys_path, rules_path, relation, fd_text] = args.positional[..] else {
        return Err(args.usage());
    };
    let engine = load_engine(keys_path, rules_path, relation)?;
    let fd = render::parse_fd(fd_text)?;
    let (all, report) = render::propagate_report(&engine.propagation_explained(&fd));
    print!("{report}");
    Ok(all)
}

fn cmd_cover(args: &Args) -> Result<bool, Error> {
    let [keys_path, rules_path, relation] = args.positional[..] else {
        return Err(args.usage());
    };
    let engine = load_engine(keys_path, rules_path, relation)?;
    print!("{}", render::render_cover(&engine.minimum_cover()));
    Ok(true)
}

fn cmd_refine(args: &Args) -> Result<bool, Error> {
    let [keys_path, rules_path, relation] = args.positional[..] else {
        return Err(args.usage());
    };
    let sigma = load_keys(keys_path)?;
    let t = load_transformation(rules_path)?;
    let design = refine(&sigma, &t.rules()[render::rule_position(&t, relation)?]);
    println!("-- minimum cover of the propagated dependencies");
    for fd in &design.cover {
        println!("--   {fd}");
    }
    println!("\n-- BCNF decomposition\n{}", design.bcnf_sql());
    println!("\n-- 3NF synthesis\n{}", design.third_normal_form_sql());
    Ok(true)
}

fn cmd_shred(args: &Args) -> Result<bool, Error> {
    // `--stream` is accepted for compatibility: shredding is defined over
    // the whole tree, so it always parses the document.
    let (doc_path, rules_path, relation) = match args.positional[..] {
        [d, r] => (d, r, None),
        [d, r, rel] => (d, r, Some(rel)),
        _ => return Err(args.usage()),
    };
    if let Some(jobs) = args.batch_jobs(doc_path)? {
        return batch_shred(doc_path, rules_path, relation, jobs);
    }
    // The server's renderer against a shredding-only bundle: a `shred`
    // request and this one-shot print identical bytes by construction.
    let bundle = CorpusBundle::for_shredding(load_transformation(rules_path)?);
    let doc = Document::parse_str(&read(doc_path)?).map_err(|e| Error::parse(doc_path, e))?;
    let mut scratch = bundle.scratch();
    let (_tuples, report) = render::shred_report(&bundle, &doc, &mut scratch, relation)?;
    print!("{report}");
    Ok(true)
}

/// One line naming an edit the way the script wrote it, for per-edit
/// reporting.
fn describe_edit(delta: &xmlprop::xmltree::Delta) -> String {
    use xmlprop::xmltree::Delta;
    match delta {
        Delta::SetText { node, .. } => format!("settext {node}"),
        Delta::RemoveSubtree { node } => format!("remove {node}"),
        Delta::InsertSubtree {
            parent, position, ..
        } => format!("insert {parent} {position}"),
    }
}

fn cmd_mutate(args: &Args) -> Result<bool, Error> {
    let [doc_path, keys_path, rules_path, script_path] = args.positional[..] else {
        return Err(args.usage());
    };
    let bundle = CorpusBundle::prepare(load_keys(keys_path)?, load_transformation(rules_path)?);
    let doc = Document::parse_str(&read(doc_path)?).map_err(|e| Error::parse(doc_path, e))?;
    let edits = xmlprop::pipeline::parse_edit_script(&read(script_path)?, script_path)?;
    let mut state = bundle.open_incremental(doc);
    println!(
        "{doc_path}: {} nodes, {} violations",
        state.document().len(),
        state.violation_count(),
    );
    let total = edits.len();
    for (line, delta) in &edits {
        // A semantically invalid edit (unknown node, position out of
        // range, …) aborts with the script line as its origin; the
        // document and all maintained state are left as of the previous
        // edit, exactly like a parse error before any edit ran.
        let report = bundle
            .apply_delta(&mut state, delta)
            .map_err(|e| Error::parse(&format!("{script_path}:{line}"), e))?;
        let inserted: usize = report.relations.iter().map(|d| d.inserted().len()).sum();
        let deleted: usize = report.relations.iter().map(|d| d.deleted().len()).sum();
        println!(
            "{script_path}:{line}: {} -> {} nodes, {} violations, tuples +{inserted} -{deleted}",
            describe_edit(delta),
            report.nodes,
            report.violations,
        );
    }
    for violation in state.violations() {
        println!("  {violation}");
    }
    println!(
        "{total} edits applied: {} nodes, {} violations",
        state.document().len(),
        state.violation_count(),
    );
    Ok(state.satisfies())
}

fn cmd_query(args: &Args) -> Result<bool, Error> {
    let [doc_path, keys_path, rules_path, query_text] = args.positional[..] else {
        return Err(args.usage());
    };
    // The server's renderer against the full prepared bundle: a `query`
    // request and this one-shot print identical bytes by construction.
    let bundle = CorpusBundle::prepare(load_keys(keys_path)?, load_transformation(rules_path)?);
    let doc = Document::parse_str(&read(doc_path)?).map_err(|e| Error::parse(doc_path, e))?;
    let mut scratch = bundle.scratch();
    let (_rows, report) = render::query_report(&bundle, &doc, &mut scratch, query_text)?;
    print!("{report}");
    Ok(true)
}

/// Parses a positive millisecond count for a serve timeout flag.
fn parse_ms(flag: &str, value: &str) -> Result<std::time::Duration, Error> {
    let ms: u64 = value
        .parse()
        .map_err(|_| Error::usage(format!("{flag} expects milliseconds, got `{value}`")))?;
    if ms == 0 {
        return Err(Error::usage(format!("{flag} must be positive")));
    }
    Ok(std::time::Duration::from_millis(ms))
}

fn cmd_serve(args: &Args) -> Result<bool, Error> {
    let mut config = ServiceConfig::default();
    // One flag governs both socket directions; the request deadline has
    // its own.
    for (flag, field) in [
        ("--read-timeout-ms", &mut config.io_timeout),
        ("--request-deadline-ms", &mut config.request_deadline),
        ("--shed-wait-ms", &mut config.shed_wait),
        ("--drain-ms", &mut config.drain_timeout),
    ] {
        if let Some(value) = args.value(flag) {
            *field = parse_ms(flag, value)?;
        }
    }
    let fault_seed: u64 = match args.value("--fault-seed") {
        Some(value) => value
            .parse()
            .map_err(|_| Error::usage(format!("--fault-seed expects a u64, got `{value}`")))?,
        None => 0,
    };
    let jobs = args.jobs()?;
    let [keys_path, rules_path] = args.positional[..] else {
        return Err(args.usage());
    };
    // A malformed spec, or `panic` outside a `handle.<verb>` point, is a
    // usage error; binding refuses a point the server never checks.
    let faults = match args.value("--faults") {
        Some(spec) => Faults::parse(spec, fault_seed)?,
        None => Faults::disabled(),
    };
    let bundle = CorpusBundle::prepare(load_keys(keys_path)?, load_transformation(rules_path)?);
    // Resident service default: enough gate width for concurrent clients;
    // batch commands keep their single-worker default.
    let jobs = jobs.unwrap_or_else(|| Jobs::new(8).expect("8 is a valid thread count"));
    let script = match args.value("--script") {
        Some(path) => {
            let base = Path::new(path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            Some(parse_script(&read(path)?, base)?)
        }
        None => None,
    };
    let default_addr = if script.is_some() {
        "127.0.0.1:0"
    } else {
        "127.0.0.1:7878"
    };
    let active = faults.is_active();
    let addr = args.value("--addr").unwrap_or(default_addr);
    let server = Server::bind_with(addr, bundle, jobs, config, faults)?;
    let Some(steps) = script else {
        eprintln!(
            "xmlprop-cli serve: listening on {} (jobs={}, bundle epoch {}{})",
            server.local_addr(),
            jobs.get(),
            server.epoch(),
            if active { ", fault injection ON" } else { "" },
        );
        server.join();
        return Ok(true);
    };
    let outcome = run_script(server.local_addr(), &steps, &mut std::io::stdout().lock());
    server.shutdown();
    outcome.map(|()| true)
}

/// Runs a directory batch: one fan-out over the files, each worker owning
/// one bundle scratch.  Each file is read and handed to
/// `CorpusBundle::process_text`: a validation-only batch streams it through
/// the worker's key automaton, a shredding batch parses it.  `report`
/// prints each processed file's outcome in file-name order; a `[SKIP]`
/// line then names each file that could not be read or parsed (a malformed
/// file never aborts the batch).  Returns the number of skipped files, or
/// `None` for a directory without documents, after saying so.
fn run_batch(
    dir: &str,
    bundle: &CorpusBundle,
    options: &CorpusOptions,
    mut report: impl FnMut(&str, &DocOutcome),
) -> Result<Option<usize>, Error> {
    let files = corpus_files(dir)?;
    if files.is_empty() {
        println!("(no *.xml documents in `{dir}`)");
        return Ok(None);
    }
    let results = xmlprop::pipeline::fan_out(
        &files,
        options.jobs.get(),
        1, // chunk of 1: file I/O dominates, so hand out one file at a time
        || bundle.scratch(),
        |scratch, _, (_, path)| {
            let text =
                fs::read_to_string(path).map_err(|e| Error::io(format!("cannot read: {e}")))?;
            bundle
                .process_text(&text, scratch, options)
                .map_err(|e| Error::new(ErrorKind::Parse, e.to_string()))
        },
    );
    let mut skipped = Vec::new();
    for ((name, _), result) in files.iter().zip(results) {
        match result {
            Ok(outcome) => report(name, &outcome),
            Err(e) => skipped.push(format!("[SKIP] {name}: {e}")),
        }
    }
    for line in &skipped {
        println!("{line}");
    }
    Ok(Some(skipped.len()))
}

/// Batch validation: every `*.xml` file of `dir` against the key set, over
/// the parallel corpus pipeline, each file streamed through its worker's
/// key automaton.
fn batch_validate(dir: &str, keys_path: &str, jobs: Jobs) -> Result<bool, Error> {
    let bundle = CorpusBundle::for_validation(load_keys(keys_path)?);
    let options = CorpusOptions {
        jobs,
        shred: false,
        validate: true,
        covers: false,
        stream: false,
    };
    let (mut documents, mut invalid, mut violations_total) = (0usize, 0usize, 0usize);
    let skipped = run_batch(dir, &bundle, &options, |name, outcome| {
        documents += 1;
        if outcome.violations.is_empty() {
            println!("[ok]   {name}");
        } else {
            invalid += 1;
            violations_total += outcome.violations.len();
            println!("[FAIL] {name} ({} violations)", outcome.violations.len());
            for v in &outcome.violations {
                println!("         {v}");
            }
        }
    })?;
    let Some(skipped) = skipped else {
        return Ok(true);
    };
    println!(
        "{} documents: {} ok, {} with violations, {} unparseable ({} violations total, jobs={})",
        documents + skipped,
        documents - invalid,
        invalid,
        skipped,
        violations_total,
        jobs.get(),
    );
    Ok(invalid == 0 && skipped == 0)
}

/// Batch shredding: every `*.xml` file of `dir` through the prepared plans,
/// over the parallel corpus pipeline.  With a relation name only that
/// relation's tuple counts are reported.
fn batch_shred(
    dir: &str,
    rules_path: &str,
    relation: Option<&str>,
    jobs: Jobs,
) -> Result<bool, Error> {
    let t = load_transformation(rules_path)?;
    // With a relation filter, reduce the transformation to that one rule
    // *before* preparing the bundle: the other rules are neither shredded
    // (no wasted work) nor counted in the totals reported below.
    let t = match relation {
        Some(rel) => {
            // Keeps the "unknown relation" diagnostics.
            let rule = t.rules()[render::rule_position(&t, rel)?].clone();
            let mut only = Transformation::new(Vec::new());
            only.add_rule(rule);
            only
        }
        None => t,
    };
    let bundle = CorpusBundle::for_shredding(t);
    let options = CorpusOptions {
        jobs,
        shred: true,
        validate: false,
        covers: false,
        stream: false,
    };
    let (mut documents, mut tuples_total) = (0usize, 0usize);
    let skipped = run_batch(dir, &bundle, &options, |name, outcome| {
        documents += 1;
        tuples_total += outcome.tuples;
        let counts: Vec<String> = outcome
            .database
            .relations()
            .map(|r| format!("{}: {}", r.schema().name(), r.len()))
            .collect();
        println!("{name}: {}", counts.join(", "));
    })?;
    let Some(skipped) = skipped else {
        return Ok(true);
    };
    println!(
        "{documents} documents shredded, {tuples_total} tuples total, {skipped} unparseable (jobs={})",
        jobs.get(),
    );
    Ok(skipped == 0)
}

fn cmd_import_xsd(args: &Args) -> Result<bool, Error> {
    let [xsd_path] = args.positional[..] else {
        return Err(args.usage());
    };
    let import = import_xsd_keys(&read(xsd_path)?).map_err(|e| Error::parse(xsd_path, e))?;
    for key in import.keys.iter() {
        println!("{key}");
    }
    for skipped in &import.skipped {
        eprintln!("skipped: {skipped}");
    }
    Ok(import.skipped.is_empty() || !import.keys.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_covers_every_subcommand_and_flag() {
        let usage = usage_text();
        for &(name, spec, _) in COMMANDS {
            assert!(
                usage.contains(&format!("xmlprop-cli {name}")),
                "subcommand `{name}` missing from usage:\n{usage}"
            );
            // Every declared option is in the help text and parses in each
            // documented form, leaving no positional behind.
            for (flag, takes_value, _) in Args::parse(name, spec, &[]).unwrap().options {
                assert!(
                    usage.contains(flag),
                    "flag `{flag}` missing from usage:\n{usage}"
                );
                let forms = if takes_value {
                    vec![
                        vec![flag.to_string(), "V".into()],
                        vec![format!("{flag}=V")],
                    ]
                } else {
                    vec![vec![flag.to_string()]]
                };
                for form in &forms {
                    let args = Args::parse(name, spec, form).unwrap();
                    assert!(args.positional.is_empty(), "{form:?}");
                    let expected = if takes_value { "V" } else { "" };
                    assert_eq!(args.value(flag), Some(expected), "{form:?}");
                }
            }
        }
        assert!(usage.contains("xmlprop-cli help"), "help missing:\n{usage}");
    }

    #[test]
    fn per_command_usage_errors_match_the_table() {
        for &(name, spec, _) in COMMANDS {
            let text = Args::parse(name, spec, &[]).unwrap().usage().to_string();
            assert!(
                text.contains(&format!("usage: {name} ")) && text.contains(spec),
                "usage error for `{name}` drifted from the table: {text}"
            );
        }
    }

    #[test]
    fn options_are_split_from_positionals_by_the_spec() {
        let (name, spec, _) = COMMANDS[0];
        let words = ["--jobs=2", "doc", "--stream", "--jobs", "3", "keys"].map(String::from);
        let args = Args::parse(name, spec, &words).unwrap();
        assert_eq!(args.positional, ["doc", "keys"]);
        assert_eq!(args.value("--stream"), Some(""));
        assert_eq!(args.value("--jobs"), Some("3"), "the last one wins");
        for (words, message) in [
            (&["--stream=1"][..], "unknown option `--stream=1`"),
            (&["--addr", "x"], "unknown option `--addr`"),
            (&["--jobs"], "--jobs expects a value"),
        ] {
            let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            let err = Args::parse(name, spec, &words).err().unwrap();
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    #[should_panic(expected = "`--addr` is not an option of `validate`")]
    fn asking_for_an_undeclared_option_panics() {
        let (name, spec, _) = COMMANDS[0];
        Args::parse(name, spec, &[]).unwrap().value("--addr");
    }
}
