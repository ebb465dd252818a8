//! `xmlprop-cli` — command-line front end for the library.
//!
//! ```text
//! xmlprop-cli validate  [--jobs N] [--stream] <document.xml | corpus-dir> <keys.txt>
//! xmlprop-cli propagate <keys.txt> <rules.txt> <relation> "<X -> A>"
//! xmlprop-cli cover     <keys.txt> <rules.txt> <relation>
//! xmlprop-cli refine    <keys.txt> <rules.txt> <relation>
//! xmlprop-cli shred     [--jobs N] [--stream] <document.xml | corpus-dir> <rules.txt> [relation]
//! xmlprop-cli mutate    <document.xml> <keys.txt> <rules.txt> <script.edits>
//! xmlprop-cli query     <document.xml> <keys.txt> <rules.txt> "<select ...>"
//! xmlprop-cli serve     [--addr HOST:PORT] [--jobs N] [--script FILE] [--read-timeout-ms N]
//!                       [--request-deadline-ms N] [--shed-wait-ms N] [--drain-ms N]
//!                       [--faults SPEC] [--fault-seed N] <keys.txt> <rules.txt>
//! xmlprop-cli import-xsd <schema.xsd>
//! ```
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
//! `validate --stream` checks the keys straight off the file's text,
//! without building a document tree.  `shred --stream` is accepted for
//! compatibility and runs the same code as `shred`.
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
/// dispatch, the `help` synopsis and every per-command usage error are all
/// generated from it, so the surfaces cannot drift apart — a subcommand
/// cannot exist without a usage line, and a usage line cannot survive its
/// subcommand's removal.
type Handler = fn(&[String]) -> Result<bool, Error>;
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

/// Every `--` option any subcommand accepts.  Kept next to the spec table
/// so the usage test can assert each one is documented; a flag parsed in
/// code but missing here (or here but absent from every spec line) fails
/// the test.
#[cfg(test)]
const FLAGS: &[&str] = &[
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
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print!("{}", usage_text());
            Ok(true)
        }
        Some(cmd) => match COMMANDS.iter().find(|(name, _, _)| *name == cmd) {
            Some((_, _, handler)) => handler(&args[1..]),
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

/// The usage error for one subcommand, generated from [`COMMANDS`] so the
/// message a failing invocation prints is the same line `help` shows.
fn usage_error(cmd: &str) -> Error {
    let spec = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == cmd)
        .map(|(_, spec, _)| *spec)
        .expect("usage_error is only called with table commands");
    Error::usage(format!("usage: {cmd} {spec}"))
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
         --stream validates straight off the file's text through the\n\
         streaming key checker, without building a document tree.\n\
         `shred --stream` is accepted for compatibility and runs the same\n\
         code as `shred`: shredding always parses the document.\n\n\
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
         budget); --faults installs a seeded fault-injection schedule\n\
         (builds with the `faultline` feature only), e.g.\n\
         --faults conn.read=10%delay:2\n",
    );
    out
}

/// Strips every occurrence of a boolean flag (e.g. `--stream`) from an
/// argument list, reporting whether it was present.  Runs before
/// [`parse_jobs`], which rejects unknown `--` options.
fn split_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let mut found = false;
    let mut rest = Vec::with_capacity(args.len());
    for arg in args {
        if arg == flag {
            found = true;
        } else {
            rest.push(arg.clone());
        }
    }
    (rest, found)
}

/// Splits `--jobs N` / `--jobs=N` out of an argument list, validating the
/// value; everything else is returned as positional arguments in order.
/// This is the **one** jobs path: batch commands default the `None` to one
/// worker, `serve` to its gate width, and the `--jobs 0` / over-maximum
/// rejections are identical everywhere.
fn parse_jobs(args: &[String]) -> Result<(Vec<String>, Option<Jobs>), Error> {
    let mut positional = Vec::new();
    let mut jobs = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs_value(value)?);
        } else if arg == "--jobs" {
            let value = iter
                .next()
                .ok_or_else(|| Error::usage("--jobs expects a thread count"))?;
            jobs = Some(parse_jobs_value(value)?);
        } else if arg.starts_with("--") {
            return Err(Error::usage(format!("unknown option `{arg}`")));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, jobs))
}

fn parse_jobs_value(value: &str) -> Result<Jobs, Error> {
    value
        .parse()
        .map_err(|e: Error| Error::jobs(format!("--jobs: {e}")))
}

/// The `*.xml` files of a corpus directory, sorted by file name so batch
/// output and document indices are stable across runs and platforms.
fn corpus_files(dir: &str) -> Result<Vec<(String, std::path::PathBuf)>, Error> {
    let entries =
        fs::read_dir(dir).map_err(|e| Error::io(format!("cannot read directory `{dir}`: {e}")))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(format!("cannot read directory `{dir}`: {e}")))?;
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

/// `--jobs` only fans out over directory batches; say so instead of
/// silently ignoring it on a single document.
fn warn_single_document_jobs(jobs: Option<Jobs>) {
    if jobs.map(|j| j.get()).unwrap_or(1) > 1 {
        eprintln!(
            "note: --jobs only affects directory batches; a single document is processed on one thread"
        );
    }
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

fn load_rule<'t>(t: &'t Transformation, relation: &str) -> Result<&'t TableRule, Error> {
    t.rule(relation).ok_or_else(|| {
        let known = t
            .rules()
            .iter()
            .map(|r| r.schema().name().to_string())
            .collect();
        Error::unknown_relation(relation, known)
    })
}

fn cmd_validate(args: &[String]) -> Result<bool, Error> {
    let (args, stream) = split_flag(args, "--stream");
    let (positional, jobs) = parse_jobs(&args)?;
    let [doc_path, keys_path] = positional.as_slice() else {
        return Err(usage_error("validate"));
    };
    if Path::new(doc_path).is_dir() {
        return batch_validate(doc_path, keys_path, jobs.unwrap_or_default(), stream);
    }
    warn_single_document_jobs(jobs);
    // The server's renderer against a validation-only bundle: a `validate`
    // request and this one-shot print identical bytes by construction.
    let bundle = CorpusBundle::for_validation(load_keys(keys_path)?);
    if stream {
        // The event-driven front end: the file's text goes straight through
        // the streaming checker — no document tree is built unless a key
        // is too long to stream.
        let (ok, report) = render::validate_report_streaming(&bundle, &read(doc_path)?, doc_path)?;
        print!("{report}");
        return Ok(ok);
    }
    let doc = Document::parse_str(&read(doc_path)?).map_err(|e| Error::parse(doc_path, e))?;
    let mut scratch = bundle.scratch();
    let (ok, report) = render::validate_report(&bundle, &doc, &mut scratch);
    print!("{report}");
    Ok(ok)
}

fn cmd_propagate(args: &[String]) -> Result<bool, Error> {
    let [keys_path, rules_path, relation, fd_text] = args else {
        return Err(usage_error("propagate"));
    };
    let sigma = load_keys(keys_path)?;
    let t = load_transformation(rules_path)?;
    let rule = load_rule(&t, relation)?;
    let engine = PropagationEngine::prepare(&sigma, rule);
    let fd = render::parse_fd(fd_text)?;
    let (all, report) = render::propagate_report(&engine.propagation_explained(&fd));
    print!("{report}");
    Ok(all)
}

fn cmd_cover(args: &[String]) -> Result<bool, Error> {
    let [keys_path, rules_path, relation] = args else {
        return Err(usage_error("cover"));
    };
    let sigma = load_keys(keys_path)?;
    let t = load_transformation(rules_path)?;
    let rule = load_rule(&t, relation)?;
    let engine = PropagationEngine::prepare(&sigma, rule);
    print!("{}", render::render_cover(&engine.minimum_cover()));
    Ok(true)
}

fn cmd_refine(args: &[String]) -> Result<bool, Error> {
    let [keys_path, rules_path, relation] = args else {
        return Err(usage_error("refine"));
    };
    let sigma = load_keys(keys_path)?;
    let t = load_transformation(rules_path)?;
    let rule = load_rule(&t, relation)?;
    let design = refine(&sigma, rule);
    println!("-- minimum cover of the propagated dependencies");
    for fd in &design.cover {
        println!("--   {fd}");
    }
    println!("\n-- BCNF decomposition\n{}", design.bcnf_sql());
    println!("\n-- 3NF synthesis\n{}", design.third_normal_form_sql());
    Ok(true)
}

fn cmd_shred(args: &[String]) -> Result<bool, Error> {
    // `--stream` is accepted for compatibility: shredding is defined over
    // the whole tree, so it always parses the document.
    let (args, _) = split_flag(args, "--stream");
    let (positional, jobs) = parse_jobs(&args)?;
    let (doc_path, rules_path, relation) = match positional.as_slice() {
        [d, r] => (d, r, None),
        [d, r, rel] => (d, r, Some(rel.as_str())),
        _ => return Err(usage_error("shred")),
    };
    if Path::new(doc_path).is_dir() {
        return batch_shred(doc_path, rules_path, relation, jobs.unwrap_or_default());
    }
    warn_single_document_jobs(jobs);
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

fn cmd_mutate(args: &[String]) -> Result<bool, Error> {
    let [doc_path, keys_path, rules_path, script_path] = args else {
        return Err(usage_error("mutate"));
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

fn cmd_query(args: &[String]) -> Result<bool, Error> {
    let [doc_path, keys_path, rules_path, query_text] = args else {
        return Err(usage_error("query"));
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

/// Matches a `--flag=value` or `--flag value` option, returning the value
/// (and consuming it from `iter` in the two-token form).
fn opt_value(
    arg: &str,
    iter: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<Option<String>, Error> {
    if let Some(value) = arg.strip_prefix(flag) {
        if let Some(value) = value.strip_prefix('=') {
            return Ok(Some(value.to_string()));
        }
        if value.is_empty() {
            return match iter.next() {
                Some(value) => Ok(Some(value.clone())),
                None => Err(Error::usage(format!("{flag} expects a value"))),
            };
        }
    }
    Ok(None)
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

fn cmd_serve(args: &[String]) -> Result<bool, Error> {
    let mut rest = Vec::new();
    let mut addr: Option<String> = None;
    let mut script: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut fault_seed: u64 = 0;
    let mut config = ServiceConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = opt_value(arg, &mut iter, "--addr")? {
            addr = Some(value);
        } else if let Some(value) = opt_value(arg, &mut iter, "--script")? {
            script = Some(value);
        } else if let Some(value) = opt_value(arg, &mut iter, "--read-timeout-ms")? {
            // One flag governs both socket directions; the request
            // deadline has its own.
            let timeout = parse_ms("--read-timeout-ms", &value)?;
            config.read_timeout = timeout;
            config.write_timeout = timeout;
        } else if let Some(value) = opt_value(arg, &mut iter, "--request-deadline-ms")? {
            config.request_deadline = parse_ms("--request-deadline-ms", &value)?;
        } else if let Some(value) = opt_value(arg, &mut iter, "--shed-wait-ms")? {
            config.shed_wait = parse_ms("--shed-wait-ms", &value)?;
        } else if let Some(value) = opt_value(arg, &mut iter, "--drain-ms")? {
            config.drain_timeout = parse_ms("--drain-ms", &value)?;
        } else if let Some(value) = opt_value(arg, &mut iter, "--faults")? {
            faults_spec = Some(value);
        } else if let Some(value) = opt_value(arg, &mut iter, "--fault-seed")? {
            fault_seed = value
                .parse()
                .map_err(|_| Error::usage(format!("--fault-seed expects a u64, got `{value}`")))?;
        } else {
            rest.push(arg.clone());
        }
    }
    let (positional, jobs) = parse_jobs(&rest)?;
    let [keys_path, rules_path] = positional.as_slice() else {
        return Err(usage_error("serve"));
    };
    // In builds without the `faultline` feature this reports a usage error
    // ("not compiled in") — release servers cannot inject faults at all.
    let faults = match faults_spec {
        Some(spec) => Faults::parse(&spec, fault_seed)?,
        None => Faults::disabled(),
    };
    let bundle = CorpusBundle::prepare(load_keys(keys_path)?, load_transformation(rules_path)?);
    // Resident service default: enough gate width for concurrent clients;
    // batch commands keep their single-worker default.
    let jobs = match jobs {
        Some(jobs) => jobs,
        None => Jobs::new(8).expect("8 is a valid thread count"),
    };
    match script {
        Some(script_path) => {
            let text = read(&script_path)?;
            let base = Path::new(&script_path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            let steps = parse_script(&text, base)?;
            let server = Server::bind_with(
                addr.as_deref().unwrap_or("127.0.0.1:0"),
                bundle,
                jobs,
                config,
                faults,
            )?;
            let mut out = std::io::stdout().lock();
            let outcome = run_script(server.local_addr(), &steps, &mut out);
            server.shutdown();
            outcome.map(|()| true)
        }
        None => {
            let active = faults.is_active();
            let server = Server::bind_with(
                addr.as_deref().unwrap_or("127.0.0.1:7878"),
                bundle,
                jobs,
                config,
                faults,
            )?;
            eprintln!(
                "xmlprop-cli serve: listening on {} (jobs={}, bundle epoch {}{})",
                server.local_addr(),
                jobs.get(),
                server.epoch(),
                if active { ", fault injection ON" } else { "" },
            );
            server.join();
            Ok(true)
        }
    }
}

/// Runs a directory batch: one fan-out over the files, each worker owning
/// one bundle scratch.  Each file is read, then either streamed straight off
/// its text (`options.stream`, validation only: no document tree) or parsed
/// and processed by the DOM pipeline.  Returns `(name, outcome)` pairs in
/// file-name order plus the per-file failures (a malformed file never
/// aborts the batch), or `None` for an empty directory.
#[allow(clippy::type_complexity)]
fn batch_outcomes(
    dir: &str,
    bundle: &CorpusBundle,
    options: &CorpusOptions,
) -> Result<Option<(Vec<(String, DocOutcome)>, Vec<(String, String)>)>, Error> {
    let files = corpus_files(dir)?;
    if files.is_empty() {
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
            if options.stream {
                return bundle
                    .stream_text(&text, options)
                    .map_err(|e| Error::new(ErrorKind::Parse, e.to_string()));
            }
            let doc = Document::parse_str(&text)
                .map_err(|e| Error::new(ErrorKind::Parse, e.to_string()))?;
            Ok(bundle.process(&doc, scratch, options))
        },
    );
    let mut outcomes = Vec::new();
    let mut failed = Vec::new();
    for ((name, _), result) in files.into_iter().zip(results) {
        match result {
            Ok(outcome) => outcomes.push((name, outcome)),
            Err(e) => failed.push((name, e.to_string())),
        }
    }
    Ok(Some((outcomes, failed)))
}

/// Batch validation: every `*.xml` file of `dir` against the key set, over
/// the parallel corpus pipeline (or, with `stream`, the streaming key
/// checker).
fn batch_validate(dir: &str, keys_path: &str, jobs: Jobs, stream: bool) -> Result<bool, Error> {
    let bundle = CorpusBundle::for_validation(load_keys(keys_path)?);
    let options = CorpusOptions {
        jobs,
        shred: false,
        validate: true,
        covers: false,
        stream,
    };
    let Some((outcomes, failed)) = batch_outcomes(dir, &bundle, &options)? else {
        println!("(no *.xml documents in `{dir}`)");
        return Ok(true);
    };
    let mut invalid = 0usize;
    let mut violations_total = 0usize;
    for (name, outcome) in &outcomes {
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
    }
    for (name, error) in &failed {
        println!("[SKIP] {name}: {error}");
    }
    println!(
        "{} documents: {} ok, {} with violations, {} unparseable ({} violations total, jobs={})",
        outcomes.len() + failed.len(),
        outcomes.len() - invalid,
        invalid,
        failed.len(),
        violations_total,
        jobs.get(),
    );
    Ok(invalid == 0 && failed.is_empty())
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
            let rule = load_rule(&t, rel)?.clone(); // keeps the "unknown relation" diagnostics
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
    let Some((outcomes, failed)) = batch_outcomes(dir, &bundle, &options)? else {
        println!("(no *.xml documents in `{dir}`)");
        return Ok(true);
    };
    let mut tuples_total = 0usize;
    for (name, outcome) in &outcomes {
        tuples_total += outcome.tuples;
        let counts: Vec<String> = outcome
            .database
            .relations()
            .map(|r| format!("{}: {}", r.schema().name(), r.len()))
            .collect();
        println!("{name}: {}", counts.join(", "));
    }
    for (name, error) in &failed {
        println!("[SKIP] {name}: {error}");
    }
    println!(
        "{} documents shredded, {} tuples total, {} unparseable (jobs={})",
        outcomes.len(),
        tuples_total,
        failed.len(),
        jobs.get(),
    );
    Ok(failed.is_empty())
}

fn cmd_import_xsd(args: &[String]) -> Result<bool, Error> {
    let [xsd_path] = args else {
        return Err(usage_error("import-xsd"));
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
        for (name, _, _) in COMMANDS {
            assert!(
                usage.contains(&format!("xmlprop-cli {name}")),
                "subcommand `{name}` missing from usage:\n{usage}"
            );
        }
        assert!(usage.contains("xmlprop-cli help"), "help missing:\n{usage}");
        for flag in FLAGS {
            assert!(
                usage.contains(flag),
                "flag `{flag}` missing from usage:\n{usage}"
            );
            assert!(
                COMMANDS.iter().any(|(_, spec, _)| spec.contains(flag)),
                "flag `{flag}` absent from every command spec"
            );
        }
    }

    #[test]
    fn per_command_usage_errors_match_the_table() {
        for (name, spec, _) in COMMANDS {
            let text = usage_error(name).to_string();
            assert!(
                text.contains(&format!("usage: {name} ")) && text.contains(spec),
                "usage error for `{name}` drifted from the table: {text}"
            );
        }
    }
}
