#!/usr/bin/env bash
# Non-test Rust lines: every file under a `src/` directory, counted up to
# its first top-level `#[cfg(test)]`; a file compiled only as a
# `#[cfg(test)] mod name;` of its parent is test code and counts 0. Prints
# a total per crate, the grand total and the five largest files — for the
# working tree, or for a git revision when REV is given. With --files it
# prints one "lines<TAB>file" row per file instead, for gates on single
# files. Every line-count gate in ROADMAP.md and scripts/check.sh (the
# size of `crates/core/src/world/`, of `crates/oracle`, no file under
# `crates/` over 700 lines, "net negative") is read off this one script.
#
#   scripts/loc.sh [--files] [REV]
set -euo pipefail

cd "$(dirname "$0")/.."
files=
if [ "${1:-}" = --files ]; then
    files=1
    shift
fi
rev="${1:-}"

if [ -n "$rev" ]; then
    list() { git ls-tree -r --name-only "$rev"; }
    show() { git show "$rev:$1"; }
else
    list() { git ls-files --cached --others --exclude-standard; }
    show() { cat "$1" 2>/dev/null || true; } # listed but deleted: 0 lines
fi

sources=$(list | grep -E '(^|/)src/.*\.rs$')

# The files that `#[cfg(test)] mod name;` lines declare: name.rs or
# name/mod.rs beside a mod.rs, lib.rs or main.rs, else in a directory
# named after the declaring file.
testonly=$(echo "$sources" | while read -r f; do
    case "${f##*/}" in
        mod.rs | lib.rs | main.rs) dir=${f%/*} ;;
        *) dir=${f%.rs} ;;
    esac
    show "$f" | { grep -A1 -E '^\s*#\[cfg\(test\)\]\s*$' || true; } |
        sed -nE 's/^\s*(pub(\([^)]*\))? )?mod ([A-Za-z0-9_]+);.*/\3/p' |
        while read -r m; do printf '%s\n%s\n' "$dir/$m.rs" "$dir/$m/mod.rs"; done
done)

# One "lines<TAB>crate<TAB>file" row per source file.
rows=$(echo "$sources" | while read -r f; do
    if grep -qxF "$f" <<<"$testonly"; then
        n=0
    else
        n=$(show "$f" | awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }')
    fi
    crate=$(echo "$f" | sed -E 's#/?src/.*##')
    printf '%s\t%s\t%s\n' "$n" "${crate:-.}" "$f"
done)

if [ -n "$files" ]; then
    echo "$rows" | cut -f1,3
    exit 0
fi

echo "$rows" | awk -F'\t' '
    { crate[$2] += $1; total += $1 }
    END {
        for (c in crate) printf "%7d  %s\n", crate[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
echo "largest files:"
echo "$rows" | sort -rn | head -5 | awk -F'\t' '{ printf "%7d  %s\n", $1, $3 }'
