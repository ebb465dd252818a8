# Counts the non-blank lines of Rust sources that are not test code:
#   awk -f .github/nontest-lines.awk $(find crates/xmltree/src -name '*.rs')
# An item marked `#[cfg(test)]` is skipped from the attribute to its end:
# the line where its braces balance again, or, for an item without a
# body (`mod oracle;`, a `use`), the line that ends in `;`.  Braces inside
# strings, char literals and `//` comments do not count; a string may span
# lines.  The file of a `#[cfg(test)] mod name;` is test code as a whole,
# so pass every file of a crate in one run.

function scan(line,   i, n, ch) {
    n = length(line)
    for (i = 1; i <= n; i++) {
        ch = substr(line, i, 1)
        if (raw) {
            if (substr(line, i, 2) == "\"#") { raw = 0; i++ }
        } else if (str) {
            if (ch == "\\") i++
            else if (ch == "\"") str = 0
        } else if (substr(line, i, 3) == "r#\"") {
            raw = 1; i += 2
        } else if (ch == "\"") {
            str = 1
        } else if (substr(line, i, 2) == "//") {
            break
        } else if (ch == "'" && substr(line, i + 2, 1) == "'") {
            i += 2
        } else if (ch == "'" && substr(line, i + 1, 1) == "\\") {
            i += 2
            while (i < n && substr(line, i + 1, 1) != "'") i++
            i++
        } else if (ch == "{") {
            depth++; opened = 1
        } else if (ch == "}") {
            depth--
        }
    }
}

FNR == 1 { skip = 0; str = 0; raw = 0 }

/^[ \t]*#\[cfg\(test\)\]/ {
    skip = 1; depth = 0; opened = 0
    sub(/^[ \t]*#\[cfg\(test\)\]/, "")
}

skip && !opened && match($0, /mod [A-Za-z0-9_]+;/) {
    name = substr($0, RSTART + 4, RLENGTH - 5)
    dir = FILENAME
    sub(/[^\/]*$/, "", dir)
    if (FILENAME !~ /(^|\/)(lib|main|mod)\.rs$/) {
        stem = FILENAME
        sub(/\.rs$/, "", stem)
        dir = stem "/"
    }
    testfile[dir name ".rs"] = 1
    testfile[dir name "/mod.rs"] = 1
}

skip {
    scan($0)
    if (!str && !raw && ((opened && depth <= 0) || (!opened && /;[ \t]*$/))) skip = 0
    next
}

NF { lines[FILENAME]++ }

END {
    for (f in lines) if (!(f in testfile)) n += lines[f]
    print n + 0
}
