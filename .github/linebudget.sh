#!/bin/sh
# Line budget: lines of code — no comment-only lines, no blanks, no
# _test.go files — in every directory of internal/ and cmd/
# (subdirectories and testdata fixtures included) and in the root facade
# package. Prints each directory's count and fails when the total
# exceeds BUDGET; a PR that removes code lowers BUDGET to the total it
# lands at, and a PR that adds code justifies the rise here.
# Run from the repository root: .github/linebudget.sh
set -e

# Set to the total at which the budget widened from seven packages to
# every directory: the reachability guard (reach_test.go) had just
# deleted the code no command, benchmark or allowlisted paper artefact
# reaches — all of stats' Histogram, namespace's Table 4 summary, the
# epoch-less trace writers, sim's closure scheduling helpers and
# workload's write-day weights among them.
BUDGET=14012

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
