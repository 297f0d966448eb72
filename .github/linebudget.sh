#!/bin/sh
# Line budget: lines of code — no comment-only lines, no blanks, no
# _test.go files — in the five packages ROADMAP item 4 holds to
# "net-negative". Fails when their total exceeds BUDGET; a PR that
# removes code lowers BUDGET to the total it lands at.
# Run from the repository root: .github/linebudget.sh
set -e

BUDGET=7273

total=0
for pkg in core trace migration dist serve; do
    n=$(ls internal/$pkg/*.go | grep -v '_test\.go$' | xargs cat |
        grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$')
    echo "$pkg $n"
    total=$((total + n))
done
echo "total $total (budget $BUDGET)"
if [ "$total" -gt "$BUDGET" ]; then
    echo "line budget exceeded: delete $((total - BUDGET)) lines, or justify raising BUDGET" >&2
    exit 1
fi
