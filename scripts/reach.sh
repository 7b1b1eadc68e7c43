#!/usr/bin/env sh
# reach.sh — list the nfvchain symbols the linker keeps in every binary:
# each cmd/*, each examples/* and the nested perfbench module. Output is one
# "<binary> <symbol>" line per reachable symbol, sorted, so two checkouts can
# be compared with diff:
#
#   sh scripts/reach.sh > after.txt
#   (cd ../parent && sh scripts/reach.sh) > before.txt
#   diff before.txt after.txt
#
# A deletion that touches only unreached code changes the output by the
# deleted symbols alone.
# The linker inlines small helpers, so a function can look unreached and
# still be called; confirm every candidate by name before deleting it.
# Run from the repository root.
set -eu

# dump prints the sorted nfvchain symbols of the main package $1, built from
# module directory $2, each prefixed with the label $3.
dump() {
    deps=$(go -C "$2" build -o /dev/null -ldflags=-dumpdep "$1" 2>&1) ||
        { printf '%s\n' "$deps" >&2; exit 1; }
    printf '%s\n' "$deps" |
        tr ' ' '\n' |
        grep '^nfvchain' |
        sort -u |
        sed "s|^|$3 |"
}

for dir in cmd/* examples/*; do
    [ -d "$dir" ] || continue
    dump "./$dir" . "$dir"
done
dump . perfbench perfbench
