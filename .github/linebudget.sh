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
# Raised from 8041 to 8090 by the fold's integer calendar (calendarAt,
# the cached current week, an int64 previous instant) and concurrent
# report sorts in internal/core, and the path table's lockstep column
# growth in internal/trace: what takes the journal replay and its
# sorts off scan-large's critical path.
# Raised from 8090 to 8191 by the grid pipeline: internal/experiment's
# source loader (each source loads on its own goroutine ahead of its
# cells) and the executor that builds cells as the pool pulls them, and
# internal/migration's per-worker cache reset, the pulling ReplayCells,
# Replay's one-pass table sizing and the flat FutureIndex (grid wall
# about a quarter lower, every manifest byte-identical).
# Raised from 8191 to 8224 by the replay kernel's integer instants and
# typed eviction heap in internal/migration: the saturating since helper
# every age goes through, STP-adapt's seen flag (0 is a real instant),
# and evictHeap's own sift-up, sift-down, fix, push and remove in place
# of container/heap's interface calls (grid wall about a fifth lower,
# every manifest byte-identical).
# Raised from 8224 to 8259 by internal/trace's Collector (records kept
# in fixed chunks and copied out once, for Collect, ReadAll and
# mssanalyze's kept trace) and its word-at-a-time validPath: what takes
# slice regrowth and the byte scan off the tracegen | mssanalyze
# critical path (every output byte-identical).
# Lowered from 8259 to 8253 by internal/dist's done handshake: parked
# claims, one wake channel and a bye replace Linger, the idle poll, the
# done channel, three options and four coordinator pass-throughs, net
# of the two protocol-version checks.
# Raised from 8253 to 8292 by the report's sized fold: internal/core's
# reserve (the fold sizes its master's CDFs, per-file arena, path index
# and hourly series once from the segments it folds, the b2 path from
# its index) and Partial.Grow, internal/trace's Interner.Grow, and
# internal/serve's doubling file rows and per-run journal reserve (the
# report allocates 63 MB instead of 184 MB on migd-live's input, every
# output byte-identical).
# Lowered from 8292 to 8150 by migsim's move onto the experiment
# engine: its three grids are spec presets, so internal/migration's six
# sweep wrappers, BestExponent and their point types, and the root
# package's two policy lists and three sweep renderers are deleted.
# Raised from 8150 to 8345 by migd's frame cache: internal/serve's
# checkpoint streams changed segments' frames into the file under the
# cut, copies every untouched segment's frame from the last checkpoint
# file (kept open, each frame CRC-checked, a damaged one re-encoded) and
# places segments only after the rename; it restores from the file frame
# by frame, answers /v1/checkpoint with encoded/copied/bytes and gains
# Close; internal/dist gains AppendFrame and ReadFrame. No frame stays on
# the heap: migd-live's peak RSS fell from 142-148 MB to 118-123 MB, and
# every checkpoint byte is unchanged.
# Raised from 8345 to 8386 by the aged index's one walk per shrink in
# internal/migration: a cut-ordered victim set (cutSet) shared with the
# scan path, a lazily drawn aging table with its bucket mapping, the
# remembered oldest resident, STP-adapt's refit count and the Aging
# curve of STP, SAAC and STP-adapt — net of the deleted per-victim pick
# loop and its dominance rule, the per-shrink class-head walk, the rank
# memo, and shrinkScan's heapify and siftDown. STP^1.4 replays about
# 3.7x faster per access at scale 0.3, every victim unchanged.
# Raised from 8386 to 8437 by tables sized once on the grid path:
# internal/experiment reserves a generated source's access string and
# path table from its plan and builds OPT's FutureRows once per source;
# internal/migration splits FutureRows from the per-replay FutureIndex
# cursors, hands the string's FileID bound to the five policies with
# FileID tables (idReserver, idBound), sizes TotalReferencedBytes' and
# DirPrefetcher's tables once, and inserts into a shrink's cutSet by a
# binary search that calls evictOrder directly. A serial 168-cell grid
# run allocates 15 MB instead of 40 MB and pays 6-7 GC cycles instead
# of 17-19; every manifest byte is unchanged.
# Lowered from 8437 to 8435 by §6 coalescing in the analysis's per-file
# transition: internal/core gains Report.Coalesce and its count (a
# 56-byte fileState still), while the root package's shared path table,
# its mutex and Coalesce's record scan, and migration.NewCoalescer's
# interner parameter are deleted, as is mssanalyze's kept trace.
# Lowered from 8435 to 8427 by one analysis entry: core.AccumulateStream
# takes a b2 stream through its block index itself (trace.TakeB2File),
# so core.AccumulateB2, the facade's own OpenB2File/ErrNotB2 fallback and
# the unused ErrNotB2 sentinel are deleted, net of TakeB2File.
BUDGET=8427

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
