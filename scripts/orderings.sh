#!/bin/sh
# Atomic-ordering policy over the non-test code of every crate and shim:
# each `.rs` file under `crates/*/src` and `shims/*/src` is read up to its
# first `#[cfg(test)]` line (`scripts/loc.sh` fails if anything but test
# code follows it).
#
#   1. No `SeqCst`: on this workspace's single-cell flags and counters
#      Release/Acquire always suffices, and a total order hides the protocol.
#   2. The counter files below use `Relaxed` only: a stronger ordering there
#      would imply a synchronization role they do not have.
#   3. A publication cell (table below) is never accessed `Relaxed`, and has
#      at least one Release-side write (`store`, or a read-modify-write,
#      with `Release`/`AcqRel`) and at least one Acquire-side read (`load`,
#      or a read-modify-write, with `Acquire`/`AcqRel`) in its file: a
#      Release that nothing Acquires synchronizes nothing. A cell is exempt
#      from rule 2 in its own file.
#
# A site's cell is the field before the atomic method whose argument list
# holds the `Ordering::`; calls that rustfmt splits over several lines are
# matched too. Violations go to stderr as `file:line: message` and the
# script exits 1. Run from the repository root.
set -eu

# Counter modules: Relaxed only.
relaxed='
crates/ftgemm-abft/src/faults/stats.rs
crates/ftgemm-net/src/store.rs
crates/ftgemm-obs/src/metrics.rs
crates/ftgemm-serve/src/routing.rs
crates/ftgemm-serve/src/stats.rs
'

# Publication cells: file, then the cells it publishes through.
cells='
crates/ftgemm-abft/src/nest.rs decision
crates/ftgemm-abft/src/parallel/pool/barrier.rs epoch
crates/ftgemm-abft/src/parallel/pool.rs generation
crates/ftgemm-core/src/matrix.rs filled
crates/ftgemm-obs/src/accept.rs stop
crates/ftgemm-serve/src/exec.rs notified
crates/ftgemm-serve/src/queue.rs closed depth pending_flops
crates/ftgemm-serve/src/service.rs abort
'

find crates/*/src shims/*/src -name '*.rs' | sort | xargs awk -v relaxed="$relaxed" -v cells="$cells" '
    BEGIN {
        n = split(relaxed, r, "\n")
        for (i = 1; i <= n; i++) if (r[i] != "") relaxed_only[r[i]] = 1
        n = split(cells, c, "\n")
        for (i = 1; i <= n; i++) {
            if (c[i] == "") continue
            m = split(c[i], w, " ")
            for (j = 2; j <= m; j++) { cell[w[1] SUBSEP w[j]] = 1; order[++ncells] = w[1] SUBSEP w[j] }
        }
    }
    function fail(line, msg) {
        printf "%s:%s %s\n", file, line ? line ":" : "", msg > "/dev/stderr"
        bad = 1
    }
    # The line of byte offset `pos` in `text`.
    function line_of(pos,   i) {
        for (i = nlines; i > 1 && start[i] > pos; i--) ;
        return lineno[i]
    }
    # Checks every `Ordering::` site of the file read so far.
    function scan(   rest, off, at, ord, p, depth, ch, q, method, recv, key, line) {
        rest = text; off = 0
        while (match(rest, /Ordering::(Relaxed|Acquire|Release|AcqRel|SeqCst)/)) {
            at = off + RSTART
            ord = substr(rest, RSTART + 10, RLENGTH - 10)
            off += RSTART + RLENGTH - 1
            rest = substr(rest, RSTART + RLENGTH)
            line = line_of(at)
            # The innermost unclosed `(` before the site opens its call.
            depth = 0; method = ""; recv = ""
            for (p = at - 1; p > 0; p--) {
                ch = substr(text, p, 1)
                if (ch == ")") depth++
                else if (ch == "(" && depth-- == 0) break
                else if (ch == ";" || ch == "{" || ch == "}") { p = 0; break }
            }
            if (p > 0) {
                # `recv[index] . method (`, with any whitespace between.
                q = substr(text, 1, p - 1)
                if (match(q, /[A-Za-z_][A-Za-z0-9_]*[ \t]*(\[[^]]*\])?[ \t]*\.[ \t]*[a-z_]+[ \t]*$/)) {
                    q = substr(q, RSTART)
                    gsub(/\[[^]]*\]|[ \t]/, "", q)
                    split(q, w, ".")
                    recv = w[1]; method = w[2]
                }
            }
            key = file SUBSEP recv
            if (ord == "SeqCst")
                fail(line, "Ordering::SeqCst on `" recv "`; Release/Acquire suffices")
            if ((file in relaxed_only) && ord != "Relaxed" && !(key in cell))
                fail(line, "Ordering::" ord " on `" recv "` in a Relaxed-only counter file")
            if (!(key in cell)) continue
            if (ord == "Relaxed")
                fail(line, "Relaxed " method " on publication cell `" recv "`")
            if (method != "load" && (ord == "Release" || ord == "AcqRel")) released[key] = 1
            if (method != "store" && (ord == "Acquire" || ord == "AcqRel")) acquired[key] = 1
        }
    }
    FNR == 1 {
        if (NR > 1) scan()
        file = FILENAME; text = ""; tlen = 0; nlines = 0; in_tests = 0
        present[file] = 1
    }
    in_tests { next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { in_tests = 1; next }
    {
        s = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
        gsub(/\047(.|\\.)\047/, "\047\047", s)
        sub(/\/\/.*/, "", s)
        start[++nlines] = tlen + 1; lineno[nlines] = FNR
        text = text s " "; tlen += length(s) + 1
    }
    END {
        if (NR > 0) scan()
        for (i = 1; i <= ncells; i++) {
            split(order[i], w, SUBSEP); file = w[1]
            if (!(file in present)) { fail(0, "in the publication table but not found"); continue }
            if (!(order[i] in released))
                fail(0, "publication cell `" w[2] "` has no Release/AcqRel write")
            if (!(order[i] in acquired))
                fail(0, "publication cell `" w[2] "` has no Acquire/AcqRel read")
        }
        for (f in relaxed_only) if (!(f in present)) { file = f; fail(0, "Relaxed-only file not found") }
        exit bad
    }
' || exit 1
