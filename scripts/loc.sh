#!/bin/sh
# Code lines per crate and per file, by the rule CHANGES.md applies:
# non-blank, non-comment (`//`, `///`, `//!`) lines of `.rs` files under
# `src/`, counted up to the file's first `#[cfg(test)]`.
#
#   scripts/loc.sh            every crate under crates/ plus the facade (src/)
#   scripts/loc.sh DIR...     only the given source directories
#
# Output: one `lines<TAB>path` row per file, a `lines<TAB>dir (total)` row
# per directory. Run from the repository root.
set -eu

if [ "$#" -eq 0 ]; then
    set -- src crates/*/src
fi

for dir in "$@"; do
    find "$dir" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { lines[FILENAME]++; total++ }
        END {
            for (f in lines) printf "%d\t%s\n", lines[f], f | "sort -k2"
            close("sort -k2")
            printf "%d\t%s (total)\n", total, dir
        }
    ' dir="$dir"
done
