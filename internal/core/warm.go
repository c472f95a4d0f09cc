package core

import (
	"sync/atomic"

	"profitlb/internal/lp"
)

// warmState is one planner's warm-start machinery, carried across its
// Plan calls inside its EngineOptions. Successive slots solve
// near-identical LPs — the topology is fixed and only arrivals and
// prices drift — so the optimal basis of one call is an excellent
// starting vertex for the next (DESIGN.md §12). The state holds two solve
// units:
//
//   - hot is the hot chain's unit. Its solver runs exactly one solve per
//     Plan call — the capture solve, the call's first — and retains its
//     factorized kernel; its dispatch LP is refreshed in place while the
//     structure stands (dispatchLP.build), so the solver is handed the
//     very model it factorized, at the stamp it factorized, and re-solves
//     with a dual-simplex repair instead of a cold two-phase run. Its
//     final basis is exported as the next call's seed.
//   - spare is the unit of every other solve of the call, one after the
//     other: the search is sequential and reads a solution out before it
//     asks for the next. Those solves use lp.Solver.SolveSeeded, which is
//     a pure function of (model, seed), so a result never depends on what
//     the unit did before. The default seed is frozen per Plan call in cur.
//
// One Plan call owns the state at a time (claim/release).
type warmState struct {
	// held is set while a Plan call owns the state. A planner is driven
	// by one caller at a time, but the resilient chain abandons a tier
	// that overruns its deadline without stopping it, so the next slot's
	// Plan can start while the previous one is still solving.
	held       atomic.Bool
	hot, spare solveUnit
	// prev is the basis exported by the most recent capture solve; cur
	// is the frozen copy every solve of the current Plan call seeds from.
	prev, cur *lp.Basis
}

// solveUnit is what one solve works in and the next one reuses: the
// solver, whose kernels keep their workspaces, and the LP — model, handles
// and builder scratch — it solves, a slot planner's dispatch LP or a
// horizon planner's window. They travel together because a solver's last
// kernel points at the model it solved, which only the unit's next build
// touches: the spare unit's before its solver's next solve forgets the
// kernel, the hot unit's by refreshing numbers the kernel re-reads or by a
// rebuild the model's stamp owns up to.
type solveUnit struct {
	sv lp.Solver
	d  dispatchLP
	w  windowLP
}

// unit is the workspace of the call's next solve, the previous one's
// solution having been read out. The capture solve's is the hot chain's
// own, which claim keeps a straggling call away from; a cold call's is
// fresh, there being no state to keep one in.
func (w *warmState) unit(capture bool) *solveUnit {
	if w == nil {
		return &solveUnit{}
	}
	if capture {
		return &w.hot
	}
	return &w.spare
}

// claim takes the planner's warm state for one Plan call, with the seed
// basis frozen; the caller releases it when the call ends. It returns
// nil — solve cold — when WarmStart is off, when the LP layout is not
// seedable, and when an earlier call still holds the state: that
// straggler's plan has already been discarded, and the live call must
// touch neither the hot chain nor the Stats sink it is still writing.
func (e *EngineOptions) claim(seedable bool) *warmState {
	w := &e.warm
	if !e.WarmStart || !seedable || !w.held.CompareAndSwap(false, true) {
		return nil
	}
	w.cur = w.prev
	return w
}

// release ends the claim. Nil-safe.
func (w *warmState) release() {
	if w != nil {
		w.held.Store(false)
	}
}

// solveModel is the one way an LP in this package reaches the simplex,
// reporting how the solve ran. A nil state is the cold dense reference.
// Otherwise the capture solve (the first, at most one per Plan call)
// runs the retained hot chain, on the hot unit's solver whatever sv, and
// exports its basis as the next call's seed; every other solve imports
// seed — nil: the frozen one — on sv, its unit's solver, keeping the
// result a pure function of (model, seed), and names its final basis only
// if export asks. The basis returned is nil when none was named.
func (w *warmState) solveModel(m *lp.Model, opts lp.Options, capture bool, sv *lp.Solver, seed *lp.Basis, export bool) (*lp.Result, *lp.Basis, lp.Outcome, error) {
	if w == nil {
		res, err := m.SolveOpts(opts)
		return res, nil, lp.Outcome{Path: "cold", ColdPivots: res.Iterations}, err
	}
	var res *lp.Result
	var err error
	if capture {
		sv = &w.hot.sv
		res, err = sv.SolveWarm(m, w.cur, opts)
	} else {
		if seed == nil {
			seed = w.cur
		}
		res, err = sv.SolveSeeded(m, seed, opts)
	}
	var basis *lp.Basis
	if err == nil && (capture || export) {
		if basis, _ = sv.ExportBasis(); capture && basis != nil {
			w.prev = basis
		}
	}
	return res, basis, sv.LastOutcome(), err
}
