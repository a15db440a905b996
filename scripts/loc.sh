#!/usr/bin/env bash
# Prints lines of Rust per workspace crate (crates/*), then for the
# umbrella crate's src/, examples/ and tests/, the total over those four
# trees, and chatbench/ on its own line. Build output (`target/`) is not
# counted. The script only reads files.
#
#   scripts/loc.sh          # this checkout
#   scripts/loc.sh DIR      # another checkout, e.g. to report a net delta
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Lines in every .rs file under the given paths (missing paths count 0).
rust_lines() {
    local paths=()
    for p in "$@"; do
        [[ -e "$p" ]] && paths+=("$p")
    done
    if [[ ${#paths[@]} -eq 0 ]]; then
        echo 0
        return
    fi
    find "${paths[@]}" -name target -prune -o -name '*.rs' -type f -print0 \
        | xargs -0 -r cat | wc -l
}

total=0
for dir in crates/*/; do
    name="$(basename "$dir")"
    n="$(rust_lines "$dir")"
    total=$((total + n))
    printf '%-12s %7d\n' "$name" "$n"
done
for dir in src examples tests; do
    n="$(rust_lines "$dir")"
    total=$((total + n))
    printf '%-12s %7d\n' "$dir/" "$n"
done
printf '%-12s %7d\n' "total" "$total"
printf '%-12s %7d\n' "chatbench/" "$(rust_lines chatbench)"
