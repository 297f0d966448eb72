#!/bin/sh
# Line budget: lines of code — no comment-only lines, no blanks, no
# _test.go files — in every directory of internal/ and cmd/
# (subdirectories and testdata fixtures included) and in the root facade
# package. Prints each directory's count and fails when the total
# exceeds BUDGET; a PR that removes code lowers BUDGET to the total it
# lands at, and a PR that adds code justifies the rise here.
# Run from the repository root: .github/linebudget.sh
set -e

# Lowered to the total at which migd's checkpoint moved onto dist's one
# durable write path: per-stripe entries and a generation record
# replaced the one-file checkpoint and its frame cache, and stats' CDF
# weighted runs and trace's per-block decode counter went.
BUDGET=14002

total=0
for dir in $(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u) .; do
    n=$(ls $dir/*.go | grep -v '_test\.go$' | xargs cat |
        grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$')
    echo "$dir $n"
    total=$((total + n))
done
echo "total $total (budget $BUDGET)"
if [ "$total" -gt "$BUDGET" ]; then
    echo "line budget exceeded: delete $((total - BUDGET)) lines, or justify raising BUDGET" >&2
    exit 1
fi
