package core

import (
	"slices"

	"profitlb/internal/linalg"
	"profitlb/internal/lp"
)

// heldUnit is the hot unit: the dispatch LP of the call's universe — its
// admissible commodities, of which the capture's set and every set a
// toggle or climb move reaches are subsets — held across calls, on which a
// set is numbers, as in the paper's program, whose constraints stay
// resident while binaries switch them. A commodity that is out has its λ
// and φ columns fixed at zero (lp.Model.Fix) and its cap row's rhs at 0,
// which turns the row into 0 ≥ 0: the LP then has the subset LP's optimum.
// The capture admits its set so and re-solves hot; a move is a fix, an
// unfix and an rhs, solved as a trial hot from the incumbent's
// checkpointed kernel (lp.Solver.Trial) and rolled back unless the search
// goes on from it — as branch-and-bound re-solves each child from its
// parent's basis.
//
// The checkpoint is taken on a call's first trial, so a single-level slot
// whose moves the dual bound all turns down takes none, and trials leave
// the hot chain where the capture left it (lp.Solver.Checkpoint). The
// model persists across calls with its numbers, reshape deciding as for
// any unit whether the structure stands, and a changed structure starts
// over; the identities of the solutions its kernels hold do not persist
// (claim).
type heldUnit struct {
	solveUnit
	// out[i] says the numbers in place hold d.comms[i] out; at holds the
	// positions in d.comms of the set last admitted.
	out []bool
	at  []int
	// cp and last are the identities (engine.seeds) of the solutions whose
	// final kernels the solver's checkpoint and its kernel hold, 0 for none.
	cp, last uint64
}

// claim forgets the previous call's identities, which this call numbers
// afresh.
func (u *heldUnit) claim() { u.cp, u.last = 0, 0 }

// hold builds the hot unit's LP over universe with floors and admits comms,
// a subset of it, returning their positions in it.
func (u *heldUnit) hold(in *Input, universe, comms []commodity, floors []float64, names *dispatchNames) (at []int) {
	u.d.build(in, universe, floors, false, names)
	if u.d.rebuilt || len(u.out) != len(u.d.comms) {
		u.out = linalg.Resized(u.out, len(u.d.comms))
		clear(u.out)
	}
	if !u.admit(in, comms) {
		panic("core: a capture's set outside its call's universe")
	}
	return u.at
}

// trial solves comms, a move's survivor beside the incumbent from, on the
// hot unit: the incumbent's kernel made the checkpoint (ready), comms
// admitted by numbers, a trial solved under cutoff. It returns nil — the
// caller solves comms' own LP on the spare unit, the ladder's next rungs —
// where there is no trial to run: a cold engine, an unpriced request,
// floors other than the held LP's, a capture that did not solve on it,
// comms not a subset of it, or a failed trial. A trial the cutoff stopped
// (lp.Cutoff) is an answer: its optimum is below the cutoff.
func (e *engine) trial(comms []commodity, floors []float64, from *prices, cutoff float64) (*lp.Result, []int) {
	if e.warm == nil || from == nil || !e.priced || !slices.Equal(floors, e.floors) {
		return nil, nil
	}
	u := &e.warm.hot
	if !e.ready(from) || !u.admit(e.in, comms) {
		return nil, nil
	}
	start := e.clock()
	res := u.sv.Trial(u.d.model, e.opts, cutoff)
	e.book(u.sv.LastOutcome(), res != nil, start)
	switch {
	case res == nil:
		u.last = 0
		return nil, nil
	case res.Status == lp.Cutoff:
		u.last = 0 // a cut kernel holds no optimum to checkpoint
		e.n.Cuts++
	}
	e.n.Trials++
	if e.warm.onTrial != nil {
		e.warm.onTrial(comms, floors, cutoff, res)
	}
	return res, u.at
}

// ready makes the solver's checkpoint the final kernel of the incumbent
// from, reporting whether it could. The checkpoint is from's already; or
// the kernel still holds from's final state — the capture's, or a trial's
// the search accepted — and is kept; or, with no checkpoint yet, the
// kernel's last solution is kept and from's set solved as a trial from it;
// or from's set is solved as a trial from the checkpoint in place.
func (e *engine) ready(from *prices) bool {
	u := &e.warm.hot
	if u.cp == from.seed {
		return true
	}
	if u.last != 0 && (u.last == from.seed || u.cp == 0) {
		if !u.sv.Checkpoint() {
			u.cp, u.last = 0, 0
			return false
		}
		if u.cp = u.last; u.cp == from.seed {
			return true
		}
	}
	if u.cp == 0 || !u.admit(e.in, from.comms) {
		return false
	}
	start := e.clock()
	res := u.sv.Trial(u.d.model, e.opts, noCutoff)
	e.book(u.sv.LastOutcome(), false, start)
	if u.last = 0; res == nil {
		return false
	}
	if u.cp = from.seed; !u.sv.Checkpoint() {
		u.cp = 0
	}
	return u.cp != 0
}

// admit sets the numbers in place to comms, a canonical list, recording
// its positions in the LP's commodities in at: a commodity coming in has
// its columns freed and its cap row's rhs restored to M/D, one going out
// its columns fixed and the rhs at 0. It reports false, changing nothing,
// when comms holds a commodity the LP lacks.
func (u *heldUnit) admit(in *Input, comms []commodity) bool {
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
		if u.out[i] != on {
			continue
		}
		u.out[i] = !on
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
