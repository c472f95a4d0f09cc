package core

import (
	"encoding/binary"
	"math"
)

// SearchStats carries the engine's diagnostic counters from one Plan
// call. Like the planner that fills it, it must not be shared between
// concurrent Plan calls.
type SearchStats struct {
	// Solves counts dispatch LPs actually handed to the simplex solver.
	Solves int64
	// CacheHits counts solves answered from the subset memo cache.
	CacheHits int64
	// Bounded counts search moves rejected by the incumbent's dual bound
	// before any LP was built (see prices.bound).
	Bounded int64
	// SolveErrors counts solver invocations that returned an error
	// (cache hits on a failed entry replay the error without recounting).
	SolveErrors int64
	// WarmHits counts LP solves answered by a warm path (hot re-solve,
	// trial or fresh LU start) of the planner's warm-start machinery;
	// WarmFallbacks counts warm attempts that fell back to the cold
	// two-phase solve. Both are zero when WarmStart is off.
	WarmHits      int64
	WarmFallbacks int64
	// WarmPivots and ColdPivots split the simplex pivot spend of the Plan
	// call by path — the raw material of the warm-speedup benchmarks.
	WarmPivots int64
	ColdPivots int64
	// SparseSolves counts warm solves answered by the sparse revised
	// simplex (zero when every LP is below the solver's row threshold).
	SparseSolves int64
	// AbandonedPivots counts pivots burned on warm attempts that were
	// abandoned for the cold path — work done and thrown away, which
	// WarmPivots and ColdPivots both exclude.
	AbandonedPivots int64
	// ImportPivots counts the crash work of the call's fresh starts
	// (lp.Outcome.ImportPivots), which the three pivot counts above leave
	// out: what a held chain pays when its structure changed.
	ImportPivots int64
	// ModelRebuilds counts held-chain solves (the capture, and a refine
	// call's greedy start) whose dispatch LP could not be refreshed in
	// place — the first slot, then a fault, a changed admitted set or a
	// toggled floor — and so was rebuilt and started over: why a slot with
	// the usual pivots still ran slow. Zero when WarmStart is off.
	ModelRebuilds int64
	// Trials counts solves answered on the hot unit: a move's survivor
	// solved hot from its incumbent's checkpointed kernel, its set a numbers
	// change of the capture's LP (see heldUnit). Zero on a slot whose moves
	// the dual bound all turns down, and when WarmStart is off.
	Trials int64
	// Cuts counts the trials stopped by their cutoff: a move whose dual
	// bound fell below the incumbent's objective while it was being
	// solved, answered as not improving with its repair cut short
	// (lp.Solver.Trial). They are Trials too.
	Cuts int64
	// Refactors counts the times a sparse kernel rebuilt its basis factors
	// in place during the call's solves (lp.Outcome.Refactors): a full eta
	// file or a hot chain at its drift bound, each a basis' worth of
	// eliminated columns in a slot that crashed nothing. Zero when
	// WarmStart is off.
	Refactors int64
}

// subsetCache memoizes dispatch-LP solves within a single planning
// call. LevelSearch's exhaustive and branch-and-bound walks map many level
// vectors onto the same filtered commodity set — every choice of a pair
// that earns nothing, off or evicted, leaves the same set — so a hit skips
// a full simplex solve. Optimized's searches seldom ask twice: the key
// carries the incumbent's number, so requests made beside different
// incumbents never share an entry. Per Plan on the rob2-chaos-scale slot
// (TestPlanSearchTrajectory) exhaustive level search solves 728 LPs and
// is answered 18 929 times from the memo, warm Optimized 38 and 5.
//
// A key holds only what varies within one Plan call: the completion
// floors, the canonical (k,q,l sorted) commodity set and the identity of
// the incumbent the solve starts from (0: none, and every cold solve).
// Everything else the LP reads — the Input, the variable layout, the
// solver options — is constant for the engine that owns the cache, and
// the cache is created per Plan call and dropped with it, so there is no
// cross-slot state to invalidate and nothing to fingerprint. A failed
// solve is an entry too: a hit replays its error.
type subsetCache map[string]cacheEntry

type cacheEntry struct {
	solution
	err error
}

// appendCacheKey serializes, onto buf, what distinguishes one solve of a
// Plan call from another. bestCoef and the floored flag are deliberately
// absent: they steer subset construction, not the LP itself. Each
// commodity packs to one word: its utility and deadline are functions of
// (k, q) through the class TUF, which is fixed for the Plan-call lifetime
// of the cache, so (k, q, l) is the commodity's full identity here —
// branch-and-bound's relaxations, the one off-ladder combination, carry
// the NumLevels sentinel as their q. The key is built per lookup on the
// search's hottest path — packing matters — into a held buffer: a lookup
// by string(key) copies nothing, only a stored entry's key is a new
// string.
func appendCacheKey(buf []byte, comms []commodity, floors []float64, seed uint64) []byte {
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(seed)
	put(uint64(len(floors)))
	for _, f := range floors {
		put(math.Float64bits(f))
	}
	for _, cm := range comms {
		// k:24 | q:8 | l:32 bits — far beyond any deployable topology
		// (TUF ladders have a handful of levels).
		put(uint64(cm.k)<<40 | uint64(cm.q)<<32 | uint64(cm.l))
	}
	return buf
}
