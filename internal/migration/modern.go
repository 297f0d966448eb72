package migration

import "filemig/internal/units"

// This file defines the optional capabilities the post-1993 policies
// (ARC, LRU-K, GDSF, cost-aware, adaptive STP) need on top of the
// Rank/Key machinery: per-access bookkeeping hooks, structural victim
// selection, and capacity awareness. The capabilities compose with the
// existing paths — a policy that implements none of them behaves
// exactly as before — and every hook is driven by the replay's own
// access sequence, so replays stay deterministic at any worker count.

// AccessObserver is an optional Policy capability for stateful policies
// that maintain their own per-file bookkeeping (reference histories,
// ghost lists, priority clocks). The cache calls FileAccessed once per
// insert and per touch, after the file's Size/LastRef/Refs reflect the
// access and before any eviction key is recomputed, and FileEvicted
// whenever a file leaves residency (policy evictions and stream-through
// removals alike). Observers keep dense FileID-indexed tables, so the
// hooks stay allocation-free in steady state.
//
// The hooks fire only from the Cache replay loop. Used outside it (by a
// caller that consults Rank alone), an observer policy never sees
// accesses and degrades to whatever its Rank reports for unseen files —
// deterministic, but not the policy's real ordering.
type AccessObserver interface {
	Policy
	// FileAccessed records one access to f at the UnixNano instant now.
	// f reflects the access already (Refs counts it, LastRef equals now).
	FileAccessed(f *CachedFile, now int64)
	// FileEvicted records that f left residency.
	FileEvicted(f *CachedFile)
}

// VictimPolicy is an optional Policy capability for policies whose
// victim choice is structural rather than a per-file score — ARC's
// dual-queue choice cannot be expressed as a frozen rank order. When
// the policy implements it, the cache's shrink loop asks NextVictim for
// each eviction instead of consulting the heap or scan paths; Rank
// remains as an advisory order for rank-only consumers.
type VictimPolicy interface {
	Policy
	// NextVictim returns the resident file to evict next, skipping the
	// protected file ID. ok is false when nothing is evictable.
	NextVictim(protect int) (id int, ok bool)
}

// CapacityAware is an optional Policy capability for policies sized in
// bytes against the cache they serve (ARC's target and ghost bounds).
// NewCache calls SetCapacity exactly once, before any access.
type CapacityAware interface {
	Policy
	SetCapacity(capacity units.Bytes)
}

// idReserver is an optional capability of the policies that keep
// FileID-indexed tables (ARC, LRU-K, the greedy-dual pair, adaptive
// STP). Cache.Replay, which knows the string's ID bound before the first
// access, hands it over once through policyCore — so ScanOnly keeps it —
// and each table is made at its final length instead of growing as the
// replay meets new IDs. The hooks still grow a table an ID outruns (a
// caller stepping the cache by hand), so the bound is a hint, never a
// limit.
type idReserver interface {
	// reserveIDs makes every FileID-indexed table addressable for IDs
	// below n.
	reserveIDs(n int)
}

// policyCore unwraps ScanOnly for capability discovery: ScanOnly hides
// only the KeyedPolicy and AgedPolicy victim paths; observer, victim,
// and capacity capabilities must keep working underneath it or stateful
// policies would silently stop updating on the scan path.
func policyCore(p Policy) Policy {
	if s, ok := p.(ScanOnly); ok {
		return s.P
	}
	return p
}
