#!/usr/bin/env bash
# Code-line count: non-blank OCaml lines with comments stripped.
#
#   tools/loc.sh                 # per directory, then the total
#   tools/loc.sh FILE|DIR ...    # per file (a directory: each .ml/.mli)
#
# Counts .ml and .mli files.  Comments nest, as in OCaml; string
# literals are kept (a "(*" inside a string opens no comment) and so are
# character literals such as '"'.  A line counts when anything but
# whitespace is left on it.  Without arguments the directories are lib/,
# bin/, test/, bench/ (without bench/suite, the benchmark's own harness)
# and examples/, run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    # stdin: file names, one per line; stdout: "COUNT FILE" per file
    xargs -r awk '
    FNR == 1 { depth = 0; instr = 0 }
    {
        line = $0; n = length(line); kept = ""; i = 1
        while (i <= n) {
            c = substr(line, i, 1); c2 = substr(line, i, 2)
            if (instr) {
                if (depth == 0) kept = kept c
                if (c == "\\") {
                    if (depth == 0) kept = kept substr(line, i + 1, 1)
                    i += 2; continue
                }
                if (c == "\"") instr = 0
                i++; continue
            }
            if (c2 == "(*") { depth++; i += 2; continue }
            if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
            if (c == "\"") { instr = 1; if (depth == 0) kept = kept c; i++; continue }
            if (c == "\047") {
                # a character literal: skip it whole so its quote or
                # paren cannot open a string or a comment
                if (substr(line, i + 2, 1) == "\047") {
                    if (depth == 0) kept = kept substr(line, i, 3)
                    i += 3; continue
                }
                if (substr(line, i + 1, 1) == "\\") {
                    j = index(substr(line, i + 3), "\047")
                    if (j > 0) {
                        if (depth == 0) kept = kept substr(line, i, j + 3)
                        i += j + 3; continue
                    }
                }
            }
            if (depth == 0) kept = kept c
            i++
        }
        if (kept ~ /[^ \t\r]/) lines[FILENAME]++
        else if (!(FILENAME in lines)) lines[FILENAME] = 0
    }
    END { for (f in lines) print lines[f], f }'
}

files_under() {
    find "$@" -type f \( -name '*.ml' -o -name '*.mli' \) \
        -not -path '*/_build/*' | sort
}

if [ $# -gt 0 ]; then
    files_under "$@" | count | sort -k2 |
        awk '{ print; total += $1 } END { printf "%7d total\n", total }'
    exit 0
fi

total=0
for d in lib bin test bench examples; do
    if [ "$d" = bench ]; then
        n=$(files_under bench | { grep -v '^bench/suite/' || true; } | count |
            awk '{ s += $1 } END { print s + 0 }')
    else
        n=$(files_under "$d" | count | awk '{ s += $1 } END { print s + 0 }')
    fi
    printf '%7d %s/\n' "$n" "$d"
    total=$((total + n))
done
printf '%7d total\n' "$total"
