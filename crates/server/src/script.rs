//! The scripted session driver behind `xmlprop-cli serve --script`.
//!
//! A script file is one request per line; `#` starts a comment.  Each
//! line is a request header in the wire grammar of [`crate::protocol`],
//! parsed by the same routine; only the body tokens differ.  Where the
//! wire has a byte length, a script names a file with an `@` prefix,
//! resolved relative to the script's directory:
//!
//! ```text
//! ping
//! status
//! validate @fig1.xml
//! shred @fig1.xml chapter
//! query @fig1.xml select chapter.name from chapter
//! propagate chapter inBook, number -> name
//! cover chapter
//! reload @keys2.txt @rules2.txt
//! quit
//! ```
//!
//! A line that does not parse is a usage error prefixed `script line N:`.
//! The driver connects, echoes each script line as `>> <line>`, and prints
//! every response verbatim (header, payload, `.` terminator), preceded by
//! the server greeting — a fully deterministic transcript that CI diffs
//! against a golden file.

use crate::client::Client;
use crate::protocol::{parse_request, BodySource, Request};
use std::fs;
use std::io::Write;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use xmlprop_pipeline::Error;

/// One script line: the text to echo and the request it encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptStep {
    /// The trimmed script line, echoed as `>> <line>` in the transcript.
    pub line: String,
    /// The request the line encodes.
    pub request: Request,
}

/// Parses a script; `@file` references are read relative to `base`.
pub fn parse_script(text: &str, base: &Path) -> Result<Vec<ScriptStep>, Error> {
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let request = parse_request(line, &mut Files(base))
            .map_err(|e| Error::usage(format!("script line {}: {e}", lineno + 1)))?;
        steps.push(ScriptStep {
            line: line.to_string(),
            request,
        });
    }
    if steps.is_empty() {
        return Err(Error::usage("script contains no requests"));
    }
    Ok(steps)
}

/// A script's body source: a body token is `@file`, a path relative to
/// the script's directory.
struct Files<'a>(&'a Path);

impl BodySource for Files<'_> {
    type Body = PathBuf;

    fn check(&self, token: Option<&str>, verb: &str) -> Result<PathBuf, Error> {
        let name = token.and_then(|token| token.strip_prefix('@'));
        let name = name.ok_or_else(|| Error::usage(format!("{verb} expects an `@file` body")))?;
        Ok(self.0.join(name))
    }

    fn read(&mut self, path: PathBuf, _what: &str) -> Result<String, Error> {
        fs::read_to_string(&path).map_err(|e| Error::read(&path.display().to_string(), e))
    }
}

/// Runs a parsed script against a live server, writing the transcript
/// (greeting, echoed lines, verbatim responses) to `out`.  Stops after a
/// `quit` step even if more lines follow.
pub fn run_script(
    addr: impl ToSocketAddrs,
    steps: &[ScriptStep],
    out: &mut impl Write,
) -> Result<(), Error> {
    let mut client = Client::connect(addr)?;
    let transcript = |e: std::io::Error| Error::io(format!("writing transcript: {e}"));
    writeln!(out, "{}", client.greeting()).map_err(transcript)?;
    for step in steps {
        writeln!(out, ">> {}", step.line).map_err(transcript)?;
        let response = client.send(&step.request)?;
        response.write_to(out).map_err(transcript)?;
        if step.request == Request::Quit {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_parse_inline_verbs_without_touching_disk() {
        let steps = parse_script(
            "# session\nping\nstatus\npropagate chapter inBook, number -> name\ncover chapter\nquit\n",
            Path::new("/nonexistent"),
        )
        .unwrap();
        assert_eq!(steps.len(), 5);
        assert_eq!(steps[0].request, Request::Ping);
        assert_eq!(
            steps[2].request,
            Request::Propagate {
                relation: "chapter".into(),
                fd: "inBook, number -> name".into(),
            }
        );
        assert_eq!(steps[4].request, Request::Quit);
    }

    #[test]
    fn query_lines_join_the_tail_into_one_query_text() {
        let dir = std::env::temp_dir().join(format!("xmlprop-script-query-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("doc.xml"), "<db/>").unwrap();
        let steps = parse_script(
            "query @doc.xml select name from chapter where name = 'Intro'\n",
            &dir,
        )
        .unwrap();
        assert_eq!(
            steps[0].request,
            Request::Query {
                document: "<db/>".into(),
                query: "select name from chapter where name = 'Intro'".into(),
            }
        );
        let err = parse_script("query @doc.xml\n", &dir).unwrap_err();
        assert!(err.to_string().contains("query text"), "got: {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_script_files_report_the_resolved_path() {
        let err = parse_script("validate @missing.xml\n", Path::new("/nonexistent")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("script line 1"), "got: {text}");
        assert!(text.contains("/nonexistent/missing.xml"), "got: {text}");
    }

    #[test]
    fn empty_scripts_are_usage_errors() {
        let err = parse_script("# only comments\n\n", Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("no requests"));
    }
}
