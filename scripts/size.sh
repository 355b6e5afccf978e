#!/usr/bin/env bash
# Prints the size counts a CHANGES.md entry quotes, each under one fixed
# definition:
#   - lines of non-test Go outside bench/,
#   - lines of test Go outside bench/,
#   - lines of Go under bench/ (its tests included),
#   - Go packages outside bench/: directories holding a .go file,
#     testdata/ excluded (what `go list ./...` counts),
#   - the bytes of each document TestDocBudget budgets, beside the
#     ceiling design_test.go sets for it.
# It only reports: no count fails it.
set -euo pipefail
cd "$(dirname "$0")/.."

# lines DIR FIND-PREDICATES... counts the lines of the files find selects.
lines() {
    local dir=$1
    shift
    find "$dir" "$@" -print0 | xargs -0 cat | wc -l
}

printf '%-22s %8d lines\n' "Go outside bench/" "$(lines . -name '*.go' ! -name '*_test.go' ! -path './bench/*')"
printf '%-22s %8d lines\n' "test Go" "$(lines . -name '*_test.go' ! -path './bench/*')"
printf '%-22s %8d lines\n' "bench/ Go" "$(lines ./bench -name '*.go')"
printf '%-22s %8d\n' "Go packages" "$(find . -name '*.go' ! -path './bench/*' ! -path '*/testdata/*' -printf '%h\n' | sort -u | wc -l)"
grep -E '^[[:space:]]+"[^"]+\.md":[[:space:]]+[0-9]+,' design_test.go |
    tr -d '",:' | while read -r doc kb; do
        printf '%-22s %8d bytes (budget %d KB)\n' "$doc" "$(wc -c < "$doc")" "$kb"
    done
