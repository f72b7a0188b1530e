#!/usr/bin/env bash
# Item-level reference check: every public fn, type or const declared in
# `crates/*/src` must be reached by something other than tests, and every
# variant of a `pub enum` there must be constructed by something other than
# tests.
#
# Test code is `#[cfg(test)]` code, a file declared through
# `#[cfg(test)] mod x;`, and every file under `tests/`, `crates/*/tests/`,
# `benchmark/tests/` and `crates/testkit` (test support: its own items are
# not checked either). Examples, benches and `benchmark/src` are readers.
#
# An item is flagged when
#   * no other .rs file in the repository names it outside test code (a
#     `pub use` re-export in its own crate's lib.rs does not count), and
#   * its own file names it only inside test code.
# Comment lines never count as a use. Names are matched as whole words,
# so a common name used anywhere (`new`, `len`) is never flagged: the
# check can miss dead items, but what it flags is dead.
#
# A variant `E::V` of a `pub enum E` in `crates/*/src` is flagged when no
# line outside test code constructs it: names it as `E::V`, or as
# `Self::V` inside an `impl … E`, other than as a pattern. A pattern is a path left of `=>`,
# one inside `matches!(`, one between `let` and its `=` (`if let`,
# `let … else`) or on a line that continues an or-pattern (`| E::V`). A
# `#[default]` variant counts as constructed; a `wire_enum!` row (`1 => V`)
# declares a variant and does not.
#
# A flagged item fails the check unless `ci/reference_allowlist.txt` lists
# it as `<file> <name> <why it stays>`, a variant's name written `E::V`; an
# allowlist line that no longer matches a flagged item fails it too, so the
# list only shrinks.
#
# Usage: ci/reference_check.sh   (from anywhere; needs bash, find, awk, sort)
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/reference_allowlist.txt
files=$(find crates tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort)

# Files that are test code whole: the targets of `#[cfg(test)] mod x;` in
# crates/*/src, at `x.rs` or `x/mod.rs` beside the declaring module.
# shellcheck disable=SC2086
test_files=$(awk '
FNR == 1 { pending = 0 }
{
    stripped = $0; sub(/^[ \t]+/, "", stripped)
    if (pending && stripped != "" && stripped !~ /^#\[/) {
        pending = 0
        if (match(stripped, /^(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z0-9_]*;$/)) {
            name = stripped; sub(/^.*mod /, "", name); sub(/;$/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            if (FILENAME !~ /\/(mod|lib|main)\.rs$/) { stem = FILENAME; sub(/\.rs$/, "", stem); dir = stem }
            print dir "/" name ".rs"; print dir "/" name "/mod.rs"
        }
    }
    if (stripped ~ /^#\[cfg\(test\)\]$/) pending = 1
}' $(echo "$files" | grep '^crates/[^/]*/src/'))

# shellcheck disable=SC2086
flagged=$(awk -v test_files="$test_files" '
function indent_of(s) { match(s, /^ */); return RLENGTH }
BEGIN { n = split(test_files, tf, "\n"); for (i = 1; i <= n; i++) test_file[tf[i]] = 1 }
FNR == 1 {
    file = FILENAME; crate = ""
    whole_test = (file in test_file) || file ~ /^(tests|crates\/[^\/]+\/tests|benchmark\/tests|crates\/testkit)\//
    if (file ~ /^crates\/[^\/]+\//) { split(file, p, "/"); crate = p[2] }
    is_lib = (file ~ /^crates\/[^\/]+\/src\/lib\.rs$/)
    is_src = (file ~ /^crates\/[^\/]+\/src\//)
    pending = 0; region_end = ""; in_reexport = 0; enum_close = ""; self_type = ""
}
{
    line = $0
    stripped = line; sub(/^[ \t]+/, "", stripped)
    # Whole-line comments (doc comments included) are never a use.
    if (stripped ~ /^\/\//) next

    # Test regions: the item after `#[cfg(test)]`, up to the line that
    # closes it at its own indentation (rustfmt output), or the item line
    # alone when it ends in `;`.
    test = (region_end != "")
    if (pending && stripped != "" && stripped !~ /^#\[/) {
        pending = 0; test = 1
        if (stripped !~ /;$/) region_end = sprintf("%" indent_of(line) "s}", "")
    } else if (region_end != "" && line == region_end) {
        region_end = ""
    }
    if (stripped ~ /^#\[cfg\(test\)\]$/) { pending = 1; next }

    # Re-exports in a crate root: `pub use ...;`, possibly over several lines.
    reexport = 0
    if (is_lib && (in_reexport || stripped ~ /^pub use /)) {
        reexport = 1; in_reexport = (stripped !~ /;/)
    }

    # Declarations: public fns, types and consts outside test code.
    if (is_src && !test && !whole_test && match(stripped, /^pub (const fn|unsafe fn|async fn|fn|struct|enum|union|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
        d = substr(stripped, 1, RLENGTH); n = split(d, w, " "); name = w[n]
        decl[++ndecl] = name SUBSEP file SUBSEP FNR SUBSEP crate
        declline[file, FNR] = name
    }

    # Variants: the lines one level inside the braces of a `pub enum` that
    # start with a name, after the `tag =>` of a `wire_enum!` row.
    if (enum_close != "" && line == enum_close) {
        enum_close = ""
    } else if (enum_close != "" && indent_of(line) == variant_indent) {
        row = stripped; sub(/^[0-9]+ => /, "", row)
        if (row ~ /^#\[default\]/) {
            is_default = 1
        } else if (match(row, /^[A-Z][A-Za-z0-9_]*/)) {
            v = enum_name "::" substr(row, 1, RLENGTH)
            variant[v] = file SUBSEP FNR
            if (is_default) built[v] = 1
            is_default = 0
        }
    } else if (is_src && !test && !whole_test && match(stripped, /^pub enum [A-Za-z_][A-Za-z0-9_]*/)) {
        enum_name = substr(stripped, 10, RLENGTH - 9); is_default = 0
        enum_close = sprintf("%" indent_of(line) "s}", ""); variant_indent = indent_of(line) + 4
    }
    if (match(stripped, /^impl(<[^>]*>)? /)) {
        self_type = stripped; sub(/ (where .*|\{)$/, "", self_type); sub(/.* for /, "", self_type)
        sub(/^impl(<[^>]*>)? /, "", self_type); sub(/[^A-Za-z0-9_].*/, "", self_type)
    }

    # Uses: every identifier token on the line, outside test code.
    if (test || whole_test) next

    # Constructions: each `E::V` path on the line that is not a pattern.
    rest = line; before = ""
    while (match(rest, /[A-Z][A-Za-z0-9_]*::[A-Z][A-Za-z0-9_]*/)) {
        path = substr(rest, RSTART, RLENGTH)
        before = before substr(rest, 1, RSTART - 1); rest = substr(rest, RSTART + RLENGTH)
        if (path ~ /^Self::/) sub(/^Self/, self_type, path)
        pattern = !index(before, "=>") && (index(rest, "=>") || stripped ~ /^\| /)
        pattern = pattern || index(before, "matches!(")
        if (match(before, /(^|[^A-Za-z0-9_])let /)) pattern = pattern || substr(before, RSTART) !~ / = /
        if (!pattern) built[path] = 1
        before = before path
    }
    toks = line; gsub(/[^A-Za-z0-9_]+/, " ", toks)
    nt = split(toks, t, " ")
    for (i = 1; i <= nt; i++) {
        tok = t[i]
        key = reexport ? "reexport:" crate : file
        if (!((tok, key) in seen)) { seen[tok, key] = 1; nfiles[tok]++ }
        if (key == file && is_src && !test && !((file, FNR) in declline && declline[file, FNR] == tok)) owncount[tok, file]++
    }
}
END {
    for (k = 1; k <= ndecl; k++) {
        split(decl[k], f, SUBSEP); name = f[1]; file = f[2]; ln = f[3]; crate = f[4]
        other = nfiles[name] - ((name, file) in seen) - ((name, "reexport:" crate) in seen)
        if (other == 0 && owncount[name, file] == 0) print file, name, ln
    }
    for (v in variant) if (!(v in built)) { split(variant[v], f, SUBSEP); print f[1], v, f[2] }
}' $files | sort)

status=0
declare -A allowed=()
while read -r file name _; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    allowed["$file $name"]=1
done < "$allowlist"

declare -A hit=()
while read -r file name ln; do
    [[ -z "$file" ]] && continue
    hit["$file $name"]=1
    if [[ -z "${allowed["$file $name"]:-}" ]]; then
        if [[ "$name" == *::* ]]; then
            echo "$file:$ln: variant \`$name\` is constructed by nothing but tests"
        else
            echo "$file:$ln: pub item \`$name\` is reached by nothing but tests"
        fi
        status=1
    fi
done <<< "$flagged"

for key in "${!allowed[@]}"; do
    if [[ -z "${hit[$key]:-}" ]]; then
        echo "$allowlist: \`$key\` is no longer flagged; remove the line"
        status=1
    fi
done

if [[ $status -eq 0 ]]; then
    echo "reference check: clean ($(grep -cv '^\(#\|$\)' "$allowlist") allowlisted)"
fi
exit $status
