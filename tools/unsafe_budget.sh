#!/usr/bin/env bash
# The per-file `unsafe` budget (ROADMAP 6b).
#
#   tools/unsafe_budget.sh            check: fail if any file's count grew
#                                     or any `unsafe` lacks its argument
#   tools/unsafe_budget.sh --update   rewrite tools/unsafe_budget.txt
#
# A file's count is the number of its lines that mention `unsafe`
# (code and the SAFETY prose beside it alike — both grow together).
# tools/unsafe_budget.txt holds "<count> <path>" for every Rust file
# of the repository's own crates that has any; a file that is not
# listed has a budget of zero. Counts may only fall: lower one by
# deleting the unsafe code and committing the `--update`d list.
#
# Every `unsafe { … }` block and `unsafe impl` must also carry a
# checked argument: a `// SAFETY:` comment on one of the three lines
# above it. Write those comments without the word itself, so arguing
# for a block never raises the file's count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
budget=tools/unsafe_budget.txt

files() {
    git ls-files -- 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' 'benchmark/*.rs' | sort
}

current() {
    files | while read -r f; do
        n=$(grep -cw unsafe "$f" || true)
        if [ "$n" -gt 0 ]; then echo "$n $f"; fi
    done
}

# "<path>:<line>" for every block or impl with no SAFETY comment in
# the three lines above it (comment lines themselves are not code).
unargued() {
    files | while read -r f; do
        awk -v f="$f" '
            /^[ \t]*\/\// { if ($0 ~ /\/\/ SAFETY:/) safety = NR; next }
            /(^|[^A-Za-z0-9_])unsafe[ \t]*\{|(^|[^A-Za-z0-9_])unsafe[ \t]+impl([^A-Za-z0-9_]|$)/ {
                if (!safety || NR - safety > 3) print f ":" NR
            }
        ' "$f"
    done
}

if [ "${1:-}" = "--update" ]; then
    current >"$budget"
    echo "wrote $budget ($(awk '{s+=$1} END {print s+0}' "$budget") lines in $(wc -l <"$budget") files)"
    exit 0
fi

status=0
while read -r n f; do
    allowed=$(awk -v f="$f" '$2 == f {print $1}' "$budget")
    if [ "$n" -gt "${allowed:-0}" ]; then
        echo "unsafe budget exceeded: $f has $n lines mentioning unsafe, budget ${allowed:-0}" >&2
        status=1
    fi
done < <(current)
while read -r at; do
    echo "unsafe without a SAFETY argument: $at has no '// SAFETY:' comment in the three lines above" >&2
    status=1
done < <(unargued)
if [ "$status" -eq 0 ]; then
    echo "unsafe budget holds ($(current | awk '{s+=$1} END {print s+0}') lines, budget $(awk '{s+=$1} END {print s+0}' "$budget")), every block argued"
fi
exit "$status"
