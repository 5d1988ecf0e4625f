#!/bin/sh
# Code lines per crate and per file, by the rule CHANGES.md applies:
# non-blank, non-comment (`//`, `///`, `//!`) lines of `.rs` files under
# `src/`, counted up to the file's first `#[cfg(test)]`.
#
# That stop is only an honest count while nothing but test code follows it,
# so the script enforces it: past a file's first `#[cfg(test)]`, every code
# line must belong to an item that carries `#[cfg(test)]` itself (a test
# module, a test-only `impl` or method); only the closing braces of the
# enclosing blocks may stand between such items. A production item behind a
# test module is reported on stderr and the script exits 1.
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

status=0
for dir in "$@"; do
    find "$dir" -name '*.rs' | sort | xargs awk '
        # Net brace depth of a line, ignoring string/char literals and
        # trailing comments.
        function braces(s) {
            gsub(/"([^"\\]|\\.)*"/, "", s)
            gsub(/\047(.|\\.)\047/, "", s)
            sub(/\/\/.*/, "", s)
            return gsub(/\{/, "", s) - gsub(/\}/, "", s)
        }
        FNR == 1 { in_tests = 0; item = 0 }
        # Inside a #[cfg(test)] item: it ends where its braces close, or at
        # a `;` when it never opened one.
        item {
            depth += braces($0)
            if ($0 ~ /\{/) opened = 1
            if (depth <= 0 && (opened || $0 ~ /;[[:space:]]*$/)) item = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
            in_tests = 1; item = 1; depth = 0; opened = 0; run = 0
            next
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        in_tests {
            # One report per run of uncounted lines, at its first line.
            if ($0 !~ /^[[:space:]]*\}[[:space:]]*$/ && !run++) {
                printf "%s:%d: production code behind a test module: %s\n", \
                    FILENAME, FNR, $0 > "/dev/stderr"
                bad = 1
            }
            next
        }
        { lines[FILENAME]++; total++ }
        END {
            for (f in lines) printf "%d\t%s\n", lines[f], f | "sort -k2"
            close("sort -k2")
            printf "%d\t%s (total)\n", total, dir
            exit bad
        }
    ' dir="$dir" || status=1
done
exit $status
