#!/usr/bin/env bash
# Non-test Rust lines, per crate and in total.
#
#   scripts/count-lines.sh [dir]
#
# Counts every line (blank and comment lines included) of the *.rs files
# under `dir` (default: the repository root this script lives in),
# outside benchmark/, shims/ and target/, and leaves out:
#   - files under a tests/ or benches/ directory;
#   - #[cfg(test)] items: the attribute line and the item it guards —
#     up to the closing brace at the attribute's indentation when the
#     item opens a block, else up to its line ending in `;` (or `,`, for
#     a one-line field); rustfmt layout is assumed;
#   - crates/join/src/reference.rs and crates/rtree/src/testgen.rs, the
#     test-only modules the crates include under #[cfg(test)].
# A crate is the directory under crates/, or `sjcm` for the facade's
# src/ and `examples` for examples/. Run it on a `git archive` copy of
# another commit to count that commit the same way.
set -euo pipefail

root=$(realpath "${1:-$(dirname "$0")/..}")
cd "$root"

find . \( -path ./benchmark -o -path ./shims -o -path ./target -o -path '*/target' \) -prune \
    -o -name '*.rs' -type f -print |
    sed 's|^\./||' |
    grep -Ev '(^|/)(tests|benches)/' |
    grep -Ev '^(crates/join/src/reference\.rs|crates/rtree/src/testgen\.rs)$' |
    sort |
    while read -r file; do
        case $file in
            crates/*) unit=$(cut -d/ -f2 <<<"$file") ;;
            src/*) unit=sjcm ;;
            *) unit=$(cut -d/ -f1 <<<"$file") ;;
        esac
        n=$(awk '
            skip == 0 && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
                match($0, /^[[:space:]]*/); indent = RLENGTH; skip = 1; next
            }
            skip == 1 || skip == 3 {
                if ($0 ~ /\{[[:space:]]*$/) skip = 2
                else if ($0 ~ /;[[:space:]]*$/ || (skip == 1 && $0 ~ /,[[:space:]]*$/)) skip = 0
                else skip = 3
                next
            }
            skip == 2 {
                match($0, /^[[:space:]]*/)
                if (RLENGTH == indent && substr($0, indent + 1, 1) == "}") { skip = 0 }
                next
            }
            { n++ }
            END { print n + 0 }
        ' "$file")
        printf '%s\t%s\n' "$unit" "$n"
    done |
    awk -F'\t' '
        { lines[$1] += $2; files[$1]++; total += $2; nfiles++ }
        END {
            printf "%-14s %6s %8s\n", "crate", "files", "lines"
            for (u in lines) printf "%-14s %6d %8d\n", u, files[u], lines[u] | "sort"
            close("sort")
            printf "%-14s %6d %8d\n", "total", nfiles, total
        }
    '
