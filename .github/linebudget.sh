#!/bin/sh
# Line budget: lines of code — no comment-only lines, no blanks, no
# _test.go files — in every directory of internal/ and cmd/
# (subdirectories and testdata fixtures included) and in the root facade
# package. Prints each directory's count and fails when the total
# exceeds BUDGET; a PR that removes code lowers BUDGET to the total it
# lands at, and a PR that adds code justifies the rise here.
# Run from the repository root: .github/linebudget.sh
set -e

# Raised by 131 lines from 14 002, when a b2 run's shard workers came to
# share one path table and a fold over one table to borrow it instead
# of building a second: trace's SharedTable and the decoder's
# look-up-then-intern-misses protocol (+37), core's borrowed path column,
# its conversion to a table of the master's own and the directories the
# master files itself (+76), a dist worker's one-connection transport
# (+12) and migd's reused restore buffer (+6). Together they cut
# scan-large's peak RSS by about a sixth and a migd report's allocation
# by a seventh.
#
# Raised by 322 lines from 14 133, when migd's three whole-state steps
# came to use every core: core's two-lane fold replay, its hand-rolled
# merge heap and the codec's Decode/Bind split with the RunCodecs
# workers (+140); serve's stripe-parallel checkpoint and two-lane
# restore (+93); dist's Stage/Commit halves of the durable write with
# its bounded fsync fan-out — dist may not import internal/pool — and
# the chaos disk's per-file fault naming (+69); the b2 decoder's
# dictionary-sized scratch (+20). Together they cut migd-live's wall
# time by about a tenth.
#
# Lowered by 20 lines to 14 435, when migd's five locks became two and
# dist and serve came to call the one worker pool directly.
#
# Raised by 62 lines from 14 435, when paths came to be resolved in
# bulk: trace's staged batch resolver (LookupBatch, InternMiss and the
# miss record that carries a probe from lookup to intern), the b2
# decoder's dictionary keys and its analysis form that makes no
# local-path strings (+37); migd's batch keys, their strided lookups
# after the decode and the interning of the misses, and the server's
# checkpoint codecs kept between checkpoints (+24); the hot-path list
# (+1). Together they cut scan-large's wall time by about an eighth.
BUDGET=14497

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
