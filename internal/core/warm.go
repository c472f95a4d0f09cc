package core

import "profitlb/internal/lp"

// warmState is one planner's warm-start machinery, carried across its
// Plan calls inside its EngineOptions: successive slots solve
// near-identical LPs, so one call's optimal basis is an excellent start
// for the next (DESIGN.md §12). It holds two solve units. hot is the
// call's one held LP (see heldUnit): the capture, the call's first solve,
// re-solves it hot, refreshed in place while its structure stands, and
// every other request it can take — a move's survivor, Refine's greedy
// start — is a trial on it. spare is the unit of every other solve, one
// after the other; those start fresh (lp.Solver.SolveFresh), a pure
// function of the model. A planner is driven by one caller at a time, so
// one Plan call owns the state from claim to its return.
type warmState struct {
	hot   heldUnit
	spare solveUnit
	// onTrial, when set, sees every trial the hot unit answers: the set,
	// its floors, its cutoff and the result. Set by tests only.
	onTrial func(comms []commodity, floors []float64, cutoff float64, res *lp.Result)
	// onSolve, when set, sees every request engine.solve answers — the
	// set, its floors, the incumbent it was asked beside (nil: none) and
	// the answer — on a cold engine too. Set by tests only.
	onSolve func(comms []commodity, floors []float64, from *prices, sol solution, err error)
}

// chain names a request's held answer storage (planScratch.out): the
// capture's, which the hot unit solves, Refine's greedy start's, or none
// (spare), a move's answer being a search's own to keep.
type chain uint8

const (
	spare       chain = iota // no held storage
	capture                  // the capture's, solved on the hot unit
	greedyStart              // Refine's greedy start's
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
// one's solution having been read out: the hot unit's for the capture,
// else the spare's. A cold call's is fresh, there being no state to keep
// one in.
func (w *warmState) unit(c chain) *solveUnit {
	switch {
	case w == nil:
		return &solveUnit{}
	case c == capture:
		return &w.hot.solveUnit
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
// the capture (c, once per Plan call) runs the hot unit's retained chain,
// on its solver whatever sv, and every other solve starts fresh on sv, its
// unit's solver, keeping the result a pure function of the model.
func (w *warmState) solveModel(m *lp.Model, opts lp.Options, c chain, sv *lp.Solver) (*lp.Result, lp.Outcome, error) {
	if w == nil {
		res, err := m.SolveOpts(opts)
		return res, lp.Outcome{Path: "cold", ColdPivots: res.Iterations}, err
	}
	var res *lp.Result
	var err error
	if c == capture {
		sv = &w.hot.sv
		res, err = sv.SolveWarm(m, nil, opts)
	} else {
		res, err = sv.SolveFresh(m, opts)
	}
	return res, sv.LastOutcome(), err
}
