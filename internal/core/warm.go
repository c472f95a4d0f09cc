package core

import "profitlb/internal/lp"

// warmState is one planner's warm-start machinery, carried across its
// Plan calls inside its EngineOptions. Successive slots solve
// near-identical LPs — the topology is fixed and only arrivals and
// prices drift — so the optimal basis of one call is an excellent
// starting vertex for the next (DESIGN.md §12). The state holds three
// solve units:
//
//   - hot is the capture chain's unit and the call's one held LP (see
//     heldUnit): the dispatch LP of the call's admissible universe, the
//     capture's set admitted on it by numbers. Its solver runs one solve
//     per Plan call — the capture solve, the call's first — and retains
//     its factorized kernel; the LP is refreshed in place while the
//     structure stands (dispatchLP.build), so the solver is handed the
//     very model it factorized, at the stamp it factorized, and re-solves
//     with a dual-simplex repair instead of a cold two-phase run. A move
//     that survives the dual bound is a trial on the same LP, from a
//     checkpoint of the kernel, which trials leave where the capture did.
//   - greedy is the same kind of chain for a multi-level Refine call's
//     second capture, its greedy start: the same commodity set slot after
//     slot, so it re-solves hot too.
//   - spare is the unit of every other solve of the call, one after the
//     other: the search is sequential and reads a solution out before it
//     asks for the next. Those solves start fresh (lp.Solver.SolveFresh),
//     a pure function of the model, so a result never depends on what the
//     unit did before.
//
// A held chain whose structure changed starts over as a spare solve does,
// and keeps the kernel it ends with. A planner is driven by one caller at
// a time, so one Plan call owns the state from claim to its return.
type warmState struct {
	hot           heldUnit
	greedy, spare solveUnit
	// onTrial, when set, sees every trial the hot unit answers: the set,
	// its floors, its cutoff and the result. Set by tests only.
	onTrial func(comms []commodity, floors []float64, cutoff float64, res *lp.Result)
	// onSolve, when set, sees every request engine.solve answers — the
	// set, its floors, the incumbent it was asked beside (nil: none) and
	// the answer — on a cold engine too. Set by tests only.
	onSolve func(comms []commodity, floors []float64, from *prices, sol solution, err error)
}

// chain names the solve unit a request runs on: a held chain's, which
// re-solves hot, or the spare's, which starts fresh.
type chain uint8

const (
	spare       chain = iota // the spare unit: a pure function of the model
	capture                  // the hot unit
	greedyStart              // the greedy unit
)

// solveUnit is what one solve works in and the next one reuses: the
// solver, whose kernels keep their workspaces, and the LP — model, handles
// and builder scratch — it solves, a slot planner's dispatch LP or a
// horizon planner's window. They travel together because a solver's last
// kernel points at the model it solved, which only the unit's next build
// touches: the spare unit's before its solver's next solve forgets the
// kernel, a held unit's by refreshing numbers the kernel re-reads or by a
// rebuild the model's stamp owns up to.
type solveUnit struct {
	sv lp.Solver
	d  dispatchLP
	w  windowLP
}

// unit is the workspace of the call's next solve on chain c, the previous
// one's solution having been read out. A cold call's is fresh, there being
// no state to keep one in.
func (w *warmState) unit(c chain) *solveUnit {
	switch {
	case w == nil:
		return &solveUnit{}
	case c == capture:
		return &w.hot.solveUnit
	case c == greedyStart:
		return &w.greedy
	}
	return &w.spare
}

// claim takes the planner's warm state for one Plan call. It returns nil —
// solve cold — when WarmStart is off or the LP layout is not held.
func (e *EngineOptions) claim(held bool) *warmState {
	if !e.WarmStart || !held {
		return nil
	}
	w := &e.warm
	w.hot.claim()
	return w
}

// solveModel is the one way an LP in this package reaches the simplex
// ladder, reporting how the solve ran; the hot unit's trials are its top
// rung (engine.trial). A nil state is the cold dense reference. Otherwise
// a held chain's solve (c: capture or greedyStart, at most one each per
// Plan call) runs that unit's retained chain, on its solver whatever sv,
// and every other solve starts fresh on sv, its unit's solver, keeping
// the result a pure function of the model.
func (w *warmState) solveModel(m *lp.Model, opts lp.Options, c chain, sv *lp.Solver) (*lp.Result, lp.Outcome, error) {
	if w == nil {
		res, err := m.SolveOpts(opts)
		return res, lp.Outcome{Path: "cold", ColdPivots: res.Iterations}, err
	}
	var res *lp.Result
	var err error
	if c == spare {
		res, err = sv.SolveFresh(m, opts)
	} else {
		sv = &w.unit(c).sv
		res, err = sv.SolveWarm(m, nil, opts)
	}
	return res, sv.LastOutcome(), err
}
