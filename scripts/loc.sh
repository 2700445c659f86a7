#!/usr/bin/env bash
# Non-test Rust line count per crate: for every `crates/*/src/**/*.rs`, the
# lines above the file's first `#[cfg(test)]` (the whole file when it has
# none), summed per crate, total at the bottom. Comments and blank lines
# count — the number tracks what a reader has to get through, and a PR
# cannot lower it by stripping docs without the diff showing it.
#
#   scripts/loc.sh                 # every crate
#   scripts/loc.sh exec sim        # just these crates, and their sum
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for d in crates/*/; do
        crates+=("$(basename "$d")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    test -d "crates/$crate/src" || { echo "loc: no crates/$crate/src" >&2; exit 1; }
    n=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
