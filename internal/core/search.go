package core

import (
	"slices"

	"profitlb/internal/lp"
)

// searchUnit is the fourth solve unit: the dispatch LP of a search's
// universe — the call's admissible commodities, of which every set a
// toggle or climb move reaches is a subset — held for the call, on which a
// set is numbers, as in the paper's program, whose constraints stay
// resident while binaries switch them. A commodity that is out has its λ
// and φ columns fixed at zero (lp.Model.Fix) and its cap row's rhs at 0,
// which turns the row into 0 ≥ 0: the LP then has the subset LP's optimum.
// A move is a fix, an unfix and an rhs, solved as a trial hot from the
// incumbent's checkpointed kernel (lp.Solver.Trial) and rolled back unless
// the search goes on from it — as branch-and-bound re-solves each child
// from its parent's basis.
//
// The unit is built on a call's first survivor, so a slot whose moves the
// dual bound all turns down pays nothing. Its model persists across calls
// with its numbers, reshape deciding as for any unit whether the structure
// stands; its checkpoint does not (claim).
type searchUnit struct {
	solveUnit
	// in[i] says the numbers in place admit d.comms[i]; at holds the
	// positions in d.comms of the set last solved.
	in []bool
	at []int
	// floors is what d was built with this call; built says it was.
	floors []float64
	built  bool
	// cp and last are the identities (engine.seeds) of the solutions whose
	// final kernels the solver's checkpoint and its kernel hold, 0 for none.
	cp, last uint64
}

// claim forgets the previous call's kernels, whose identities this call
// numbers afresh.
func (u *searchUnit) claim() { u.built, u.cp, u.last = false, 0, 0 }

// trial solves comms, a move's survivor beside the incumbent from, on the
// search unit: the incumbent's kernel made the checkpoint (ready), comms
// admitted by numbers, a trial solved. It returns nil — the caller solves
// comms' own LP on the spare unit, the ladder's next rungs — where there
// is no search (a cold engine, an unpriced request), where comms holds a
// commodity outside the universe, or where the trial failed.
func (e *engine) trial(comms []commodity, floors []float64, from *prices) (*lp.Result, []int) {
	if e.warm == nil || from == nil || !e.priced {
		return nil, nil
	}
	u := &e.warm.search
	if e.universe == nil {
		e.universe, _ = e.scratch.admit(e.in, floors)
	}
	if len(e.universe) == 0 {
		return nil, nil
	}
	if !u.built || !slices.Equal(u.floors, floors) {
		e.buildSearch(floors)
	}
	if !e.ready(from) || !u.admit(e.in, comms) {
		return nil, nil
	}
	res := u.sv.Trial(u.d.model, e.opts)
	out := u.sv.LastOutcome()
	e.book(out, res != nil)
	if res == nil {
		u.last = 0
		return nil, nil
	}
	e.n.Trials++
	if e.warm.onTrial != nil {
		e.warm.onTrial(comms, floors, res)
	}
	return res, u.at
}

// buildSearch builds the search unit's LP over the call's universe with
// floors, every commodity admitted when the structure had to be built. A
// planner that admitted nothing this call takes the first survivor's
// floors' admissible list for its universe.
func (e *engine) buildSearch(floors []float64) {
	u := &e.warm.search
	u.d.build(e.in, e.universe, floors, false, e.names)
	u.floors, u.built = append(u.floors[:0], floors...), true
	if u.d.rebuilt || len(u.in) != len(u.d.comms) {
		u.in = u.in[:0]
		for range u.d.comms {
			u.in = append(u.in, true)
		}
		u.cp, u.last = 0, 0
	}
}

// ready makes the solver's checkpoint the final kernel of the incumbent
// from, reporting whether it could. The checkpoint is from's already, or
// the kernel still holds from's final state — a trial the search accepted —
// and is kept; otherwise from's set is established: adopted from the
// capture's kernel when from is the capture over this very LP, else solved
// as a trial from the checkpoint in place, else imported from the latest
// capture's basis.
func (e *engine) ready(from *prices) bool {
	u := &e.warm.search
	if u.cp == from.seed {
		return true
	}
	if u.last == from.seed && u.sv.Checkpoint() {
		u.cp = from.seed
		return true
	}
	if !u.admit(e.in, from.comms) {
		return false
	}
	m := u.d.model
	established := from.seed == e.capture && u.cp == 0 && u.sv.Adopt(&e.warm.hot.sv, m)
	if !established && u.cp != 0 {
		res := u.sv.Trial(m, e.opts)
		e.book(u.sv.LastOutcome(), false)
		established = res != nil && u.sv.Checkpoint()
	}
	if !established {
		_, err := u.sv.SolveSeeded(m, e.warm.prev, e.opts)
		e.book(u.sv.LastOutcome(), false)
		established = err == nil && u.sv.Checkpoint()
	}
	u.cp, u.last = 0, 0
	if established {
		u.cp = from.seed
	}
	return established
}

// admit sets the numbers in place to comms, a canonical list, recording
// its positions in the universe in at: a commodity coming in has its
// columns freed and its cap row's rhs restored to M/D, one going out its
// columns fixed and the rhs at 0. It reports false, changing nothing, when
// comms holds a commodity outside the universe.
func (u *searchUnit) admit(in *Input, comms []commodity) bool {
	u.at = u.at[:0]
	i := 0
	for _, c := range comms {
		for i < len(u.d.comms) && compareCommodities(u.d.comms[i], c) < 0 {
			i++
		}
		if i == len(u.d.comms) || compareCommodities(u.d.comms[i], c) != 0 {
			return false
		}
		u.at = append(u.at, i)
	}
	m, j := u.d.model, 0
	for i, c := range u.d.comms {
		on := j < len(u.at) && u.at[j] == i
		if on {
			j++
		}
		if u.in[i] == on {
			continue
		}
		u.in[i] = on
		for _, v := range u.d.xVar[i] {
			m.Fix(v, !on)
		}
		for _, v := range u.d.fVar[i] {
			m.Fix(v, !on)
		}
		rhs := 0.0
		if on {
			rhs = float64(in.Sys.Centers[c.l].Servers) / c.deadline
		}
		m.SetRHS(i, rhs) // the cap rows are the model's first, one per commodity
	}
	return true
}
