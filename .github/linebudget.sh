#!/bin/sh
# Line budget: lines of code — no comment-only lines, no blanks, no
# _test.go files — in the five packages ROADMAP item 4 holds to
# "net-negative", plus internal/experiment and the root facade package
# (held since PR 24 shrank them). Fails when their total exceeds BUDGET;
# a PR that removes code lowers BUDGET to the total it lands at.
# Run from the repository root: .github/linebudget.sh
set -e

# Raised from 7996 to 8041 by the aged index's rank memo, shrink-wide
# aging bound and occupied-class bitmap in internal/migration (about
# 70 % fewer Rank calls on the benchmark grid, the same victims).
BUDGET=8041

total=0
for dir in internal/core internal/trace internal/migration internal/dist internal/serve \
    internal/experiment .; do
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
