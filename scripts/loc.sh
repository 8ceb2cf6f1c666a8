#!/usr/bin/env bash
# Non-test Rust lines: every file under a `src/` directory, counted up to
# its first top-level `#[cfg(test)]`. Prints a total per crate, the grand
# total and the five largest files — for the working tree, or for a git
# revision when REV is given. Every line-count gate in ROADMAP.md (the
# size of `world.rs`, of `crates/oracle`, "net negative") is read off this
# one script.
#
#   scripts/loc.sh [REV]
set -euo pipefail

cd "$(dirname "$0")/.."
rev="${1:-}"

if [ -n "$rev" ]; then
    list() { git ls-tree -r --name-only "$rev"; }
    show() { git show "$rev:$1"; }
else
    list() { git ls-files --cached --others --exclude-standard; }
    show() { cat "$1" 2>/dev/null || true; } # listed but deleted: 0 lines
fi

# One "lines<TAB>crate<TAB>file" row per source file.
rows=$(list | grep -E '(^|/)src/.*\.rs$' | while read -r f; do
    n=$(show "$f" | awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }')
    crate=$(echo "$f" | sed -E 's#/?src/.*##')
    printf '%s\t%s\t%s\n' "$n" "${crate:-.}" "$f"
done)

echo "$rows" | awk -F'\t' '
    { crate[$2] += $1; total += $1 }
    END {
        for (c in crate) printf "%7d  %s\n", crate[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
echo "largest files:"
echo "$rows" | sort -rn | head -5 | awk -F'\t' '{ printf "%7d  %s\n", $1, $3 }'
