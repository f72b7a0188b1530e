#!/usr/bin/env bash
# Item-level reference check: every public fn, type or const declared in
# `crates/*/src` must be reached by something other than its own tests.
#
# An item is flagged when
#   * no other .rs file in the repository names it (a `pub use` re-export
#     in its own crate's lib.rs does not count), and
#   * its own file names it only inside `#[cfg(test)]` code.
# Comment lines never count as a use. Names are matched as whole words,
# so a common name used anywhere (`new`, `len`) is never flagged: the
# check can miss dead items, but what it flags is dead.
#
# A flagged item fails the check unless `ci/reference_allowlist.txt` lists
# it as `<file> <name> <why it stays>`; an allowlist line that no longer
# matches a flagged item fails it too, so the list only shrinks.
#
# Usage: ci/reference_check.sh   (from anywhere; needs bash, find, awk, sort)
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/reference_allowlist.txt
files=$(find crates tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort)

# shellcheck disable=SC2086
flagged=$(awk '
function indent_of(s) { match(s, /^ */); return RLENGTH }
FNR == 1 {
    file = FILENAME; crate = ""
    if (file ~ /^crates\/[^\/]+\//) { split(file, p, "/"); crate = p[2] }
    is_lib = (file ~ /^crates\/[^\/]+\/src\/lib\.rs$/)
    is_src = (file ~ /^crates\/[^\/]+\/src\//)
    pending = 0; region_end = ""; in_reexport = 0
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
    if (is_src && !test && match(stripped, /^pub (const fn|unsafe fn|async fn|fn|struct|enum|union|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
        d = substr(stripped, 1, RLENGTH); n = split(d, w, " "); name = w[n]
        decl[++ndecl] = name SUBSEP file SUBSEP FNR SUBSEP crate
        declline[file, FNR] = name
    }

    # Uses: every identifier token on the line.
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
        echo "$file:$ln: pub item \`$name\` is reached only by its own file's tests"
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
