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
//     with a dual-simplex repair instead of a cold two-phase run. Its
//     final basis is exported as the next call's seed. A move that
//     survives the dual bound is a trial on the same LP, from a
//     checkpoint of the kernel, which trials leave where the capture did.
//   - greedy is the same kind of chain for a multi-level Refine call's
//     second capture, its greedy start: the same commodity set slot after
//     slot, so it re-solves hot too. It exports no seed, and imports the
//     frozen one only when its structure changed.
//   - spare is the unit of every other solve of the call, one after the
//     other: the search is sequential and reads a solution out before it
//     asks for the next. Those solves use lp.Solver.SolveSeeded from the
//     seed frozen per Plan call in cur, a pure function of (model, seed),
//     so a result never depends on what the unit did before.
//
// A planner is driven by one caller at a time, so one Plan call owns the
// state from claim to its return.
type warmState struct {
	hot           heldUnit
	greedy, spare solveUnit
	// prev is the basis exported by the most recent capture solve; cur
	// is the frozen copy every solve of the current Plan call seeds from.
	prev, cur *lp.Basis
	// onTrial, when set, sees every trial the hot unit answers: the set,
	// its floors, its cutoff and the result. Set by tests only.
	onTrial func(comms []commodity, floors []float64, cutoff float64, res *lp.Result)
}

// chain names the solve unit a request runs on: a held chain's, which
// re-solves hot, or the spare's, seeded.
type chain uint8

const (
	seeded      chain = iota // the spare unit: a pure function of (model, seed)
	capture                  // the hot unit; exports the next call's seed
	greedyStart              // the greedy unit; exports nothing across calls
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

// claim takes the planner's warm state for one Plan call, with the seed
// basis frozen. It returns nil — solve cold — when WarmStart is off or the
// LP layout is not seedable.
func (e *EngineOptions) claim(seedable bool) *warmState {
	if !e.WarmStart || !seedable {
		return nil
	}
	w := &e.warm
	w.cur = w.prev
	w.hot.claim()
	return w
}

// solveModel is the one way an LP in this package reaches the simplex
// ladder, reporting how the solve ran; the hot unit's trials are its top
// rung (engine.trial). A nil state is the cold dense reference. Otherwise
// a held chain's solve (c: capture or greedyStart, at most one each per
// Plan call) runs that unit's retained chain, on its solver whatever sv,
// with the frozen seed as the import fallback, and the capture exports its
// final basis as the next call's seed. Every other solve imports the
// frozen seed on sv, its unit's solver, keeping the result a pure function
// of (model, seed).
func (w *warmState) solveModel(m *lp.Model, opts lp.Options, c chain, sv *lp.Solver) (*lp.Result, lp.Outcome, error) {
	if w == nil {
		res, err := m.SolveOpts(opts)
		return res, lp.Outcome{Path: "cold", ColdPivots: res.Iterations}, err
	}
	var res *lp.Result
	var err error
	if c == seeded {
		res, err = sv.SolveSeeded(m, w.cur, opts)
	} else {
		sv = &w.unit(c).sv
		res, err = sv.SolveWarm(m, w.cur, opts)
	}
	if err == nil && c == capture {
		if basis, ok := sv.ExportBasis(); ok {
			w.prev = basis
		}
	}
	return res, sv.LastOutcome(), err
}
