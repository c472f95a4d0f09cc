package lp

import (
	"math"
	"slices"
	"testing"
)

// subsetOf is the model m stands for under its pins: m without its fixed
// columns, every row keeping its sense and rhs over the columns left.
func subsetOf(m *Model) *Model {
	sub, at := NewModel(), make([]int, len(m.names))
	sub.SetMinimize(m.minimize)
	for v, name := range m.names {
		at[v] = -1
		if !m.fixed.has(v) {
			at[v] = sub.AddVariable(name, m.obj[v])
		}
	}
	for _, row := range m.rows {
		var terms []Term
		for _, t := range row.terms {
			if at[t.Var] >= 0 {
				terms = append(terms, Term{Var: at[t.Var], Coef: t.Coef})
			}
		}
		sub.AddConstraint(row.name, terms, row.sense, row.rhs)
	}
	return sub
}

// FuzzTrialRollback walks a generated dispatch-shaped LP (dispatchShaped:
// a cap row, a share column and a flow per front-end for each commodity,
// arrival and share rows) through byte-decoded moves — a commodity taken
// out (its columns fixed, its cap row's rhs at 0) or put back, an arrival
// budget moved, a flow's profit moved, the last trial kept as the
// checkpoint — on both kernels,
// solving each state as a trial. Every trial is held to the cold solve of
// the subset model its pins stand for: the same verdict (a trial answers
// exactly when that is Optimal), the same objective to 1e-9 relative, and
// a solution that passes the audit, pins included. Each state is solved
// again under a cutoff a byte-chosen fraction below the checkpoint's
// objective: that trial returns the uncut one's result bit for bit, or a
// cut whose bound is below the cutoff and above the cold optimum — a cut
// only where the subset model cannot reach the cutoff. Run again after
// the rollbacks, the same trial reproduces itself bit for bit. Last,
// SolveWarm under new rhs, new costs and every column freed resumes hot
// from where the first solve left the kernel and meets the cold solve to
// 1e-9 relative.
func FuzzTrialRollback(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), int64(1), []byte{0, 3, 6, 1, 2, 9, 4})
	f.Add(uint8(3), uint8(4), uint8(1), int64(7), []byte{0, 0, 3, 3, 2, 6, 6, 9, 1, 4, 7, 2})
	f.Add(uint8(1), uint8(2), uint8(3), int64(3), []byte{0, 2, 3, 5, 6, 8, 2, 0, 3})
	f.Fuzz(func(t *testing.T, nk, nl, ns uint8, seed int64, moves []byte) {
		if len(moves) > 48 {
			t.Skip()
		}
		d := dispatchShaped(1+int(nk)%3, 2+int(nl)%4, 1+int(ns)%3, seed)
		m := d.m
		profit := m.ObjectiveCoefs()
		need := make([]float64, len(d.comms))
		for ci := range d.comms {
			_, _, need[ci] = m.RowSpec(ci) // the cap rows come first
		}
		for _, kernel := range []string{"dense", "sparse"} {
			s := onDense()
			if kernel == "sparse" {
				s = onSparse()
			}
			first, err := s.SolveWarm(m, nil, Options{})
			if err != nil || !s.Checkpoint() {
				t.Fatalf("%s: no warm kernel to checkpoint (%v)", kernel, err)
			}
			inc, last := first.Objective, 0.0 // the checkpoint's objective, the last answer's
			out := make([]bool, len(d.comms))
			budget := slices.Clone(d.arrivals)
			for _, mv := range moves {
				switch i := int(mv / 4); mv % 4 {
				case 0:
					ci := i % len(d.comms)
					out[ci] = !out[ci]
					for _, x := range append([]int{d.comms[ci].flows[0] - 1}, d.comms[ci].flows...) {
						m.Fix(x, out[ci]) // the share column precedes the flows
					}
					m.SetRHS(ci, need[ci])
					if out[ci] {
						m.SetRHS(ci, 0)
					}
				case 1:
					r := i % len(d.arrRows)
					budget[r] = d.arrivals[r] * float64(i%5) / 3
					m.SetRHS(d.arrRows[r], budget[r])
				case 2:
					c := d.comms[i%len(d.comms)]
					m.SetObjective(c.flows[i%len(c.flows)], float64(i%7-2))
				case 3:
					if s.Checkpoint() { // keeps the last trial when it answered
						inc = last
					}
					continue
				}
				got := s.Trial(m, Options{}, math.Inf(-1)).Clone()
				gotRun := trialRun(got)
				cutoff := inc - float64(mv/4%8)/16*math.Max(1, math.Abs(inc))
				cut := s.Trial(m, Options{}, cutoff)
				want, err := subsetOf(m).SolveOpts(Options{})
				if (got != nil) != (err == nil) {
					t.Fatalf("%s: trial answered %v, the subset model's cold solve says %v", kernel, got != nil, err)
				}
				if cut != nil && cut.Status == Cutoff {
					slack := 1e-9 * math.Max(1, math.Abs(cutoff))
					if !(cut.Objective < cutoff) || err == nil && (want.Objective >= cutoff+slack || cut.Objective < want.Objective-slack) {
						t.Fatalf("%s: cut at %.17g under cutoff %.17g, the subset model reaches %.17g (%v)", kernel, cut.Objective, cutoff, want.Objective, err)
					}
				} else if (cut != nil) != (got != nil) || !slices.Equal(trialRun(cut), gotRun) {
					t.Fatalf("%s: under cutoff %.17g the trial answered apart from the uncut one", kernel, cutoff)
				}
				if got == nil {
					continue
				}
				if math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
					t.Fatalf("%s: trial reaches %.17g, the subset model %.17g", kernel, got.Objective, want.Objective)
				}
				if err := m.CheckFeasible(got.X, auditTol(m, defaultTol)); err != nil {
					t.Fatalf("%s: trial fails the audit: %v", kernel, err)
				}
				again := s.Trial(m, Options{}, math.Inf(-1))
				if again == nil || !slices.Equal(gotRun, trialRun(again)) {
					t.Fatalf("%s: the trial re-run after its rollback differs", kernel)
				}
				last = again.Objective
			}
			// After trials and an accepted checkpoint the next SolveWarm
			// resumes where the first solve left the kernel: every column
			// freed, every budget and a profit per commodity moved, it
			// re-solves hot and agrees with the cold solve.
			if s.Trial(m, Options{}, math.Inf(-1)) != nil {
				s.Checkpoint()
			}
			for ci := range out {
				if out[ci] {
					for _, x := range append([]int{d.comms[ci].flows[0] - 1}, d.comms[ci].flows...) {
						m.Fix(x, false)
					}
					m.SetRHS(ci, need[ci])
					out[ci] = false
				}
			}
			for r, row := range d.arrRows {
				m.SetRHS(row, d.arrivals[r]*(1+float64(r%3)/2))
			}
			for ci, c := range d.comms {
				x := c.flows[ci%len(c.flows)]
				m.SetObjective(x, profit[x]+float64(ci%3)-1)
			}
			got, err := s.SolveWarm(m, nil, Options{})
			if err != nil || s.LastOutcome().Path != "hot" {
				t.Fatalf("%s: resumed from the checkpoint: path %q, %v", kernel, s.LastOutcome().Path, err)
			}
			want, err := m.SolveOpts(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("%s: resumed hot, reaches %.17g, the cold solve %.17g", kernel, got.Objective, want.Objective)
			}
			for ci := range out { // back to the full model for the other kernel
				if out[ci] {
					for _, x := range append([]int{d.comms[ci].flows[0] - 1}, d.comms[ci].flows...) {
						m.Fix(x, false)
					}
					m.SetRHS(ci, need[ci])
				}
			}
			for r, row := range d.arrRows {
				m.SetRHS(row, d.arrivals[r])
			}
			for _, c := range d.comms {
				for _, x := range c.flows {
					m.SetObjective(x, profit[x])
				}
			}
		}
	})
}

// TestCheckpointRewarmsColdSolve: a checkpoint of a cold solve's final
// state crashes its basis into the warm kernel (its work owed to the next
// solve as crash work), so trials answer from it and the next SolveWarm
// resumes hot, on both kernels.
func TestCheckpointRewarmsColdSolve(t *testing.T) {
	for _, kernel := range []string{"dense", "sparse"} {
		s := onDense()
		if kernel == "sparse" {
			s = onSparse()
		}
		d := dispatchShaped(2, 3, 2, 5)
		m := d.m
		if _, err := s.Solve(m, Options{}); err != nil || !s.Checkpoint() {
			t.Fatalf("%s: no kernel made of the cold solve (%v)", kernel, err)
		}
		c := d.comms[0]
		for _, x := range append([]int{c.flows[0] - 1}, c.flows...) {
			m.Fix(x, true)
		}
		m.SetRHS(0, 0)
		got := s.Trial(m, Options{}, math.Inf(-1))
		if got == nil || s.LastOutcome().ImportPivots == 0 {
			t.Fatalf("%s: trial from the rewarmed checkpoint: %v, outcome %+v", kernel, got != nil, s.LastOutcome())
		}
		want, err := subsetOf(m).SolveOpts(Options{})
		if err != nil || math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("%s: trial reaches %.17g, the subset model %.17g (%v)", kernel, got.Objective, want.Objective, err)
		}
		if _, err := s.SolveWarm(m, nil, Options{}); err != nil || s.LastOutcome().Path != "hot" {
			t.Fatalf("%s: after the trial, path %q (%v), want hot", kernel, s.LastOutcome().Path, err)
		}
	}
}

// trialRun is a trial's answer as bits to compare: its objective, solution
// and duals (nil for none).
func trialRun(res *Result) []float64 {
	if res == nil {
		return nil
	}
	return append(append([]float64{res.Objective}, res.X...), res.Duals...)
}

// TestTrialCutsALosingRemove: on both kernels, a remove whose optimum is
// below the checkpoint's objective, tried with that objective as its
// cutoff, stops before its repair ends — fewer pivots, booked as warm, a
// bound between the optimum and the cutoff, no kernel left to checkpoint —
// and the uncut trial after it answers as it would have.
func TestTrialCutsALosingRemove(t *testing.T) {
	for _, kernel := range []string{"dense", "sparse"} {
		s := onDense()
		if kernel == "sparse" {
			s = onSparse()
		}
		d := dispatchShaped(2, 3, 2, 5)
		m := d.m
		inc, err := s.SolveWarm(m, nil, Options{})
		if err != nil || !s.Checkpoint() {
			t.Fatalf("%s: no warm kernel to checkpoint (%v)", kernel, err)
		}
		inc, cuts := inc.Clone(), 0
		for ci, c := range d.comms {
			_, _, need := m.RowSpec(ci)
			for _, x := range append([]int{c.flows[0] - 1}, c.flows...) {
				m.Fix(x, true)
			}
			m.SetRHS(ci, 0)
			full := s.Trial(m, Options{}, math.Inf(-1)).Clone()
			pivots := s.LastOutcome().WarmPivots
			got := s.Trial(m, Options{}, inc.Objective)
			out := s.LastOutcome()
			if got != nil && got.Status == Cutoff {
				cuts++
				if full == nil || !(got.Objective < inc.Objective) || got.Objective < full.Objective-1e-9*math.Abs(full.Objective) ||
					out.WarmPivots >= pivots || out.AbandonedPivots != 0 || s.Checkpoint() {
					t.Fatalf("%s: commodity %d cut at %.17g (%d pivots, %+v), uncut %v; incumbent %.17g", kernel, ci, got.Objective, pivots, out, full, inc.Objective)
				}
			}
			if again := s.Trial(m, Options{}, math.Inf(-1)); !slices.Equal(trialRun(again), trialRun(full)) {
				t.Fatalf("%s: commodity %d: the uncut trial after a cut answers apart", kernel, ci)
			}
			for _, x := range append([]int{c.flows[0] - 1}, c.flows...) {
				m.Fix(x, false)
			}
			m.SetRHS(ci, need)
		}
		if cuts == 0 {
			t.Fatalf("%s: no remove of %d was cut", kernel, len(d.comms))
		}
		t.Logf("%s: %d of %d removes cut", kernel, cuts, len(d.comms))
	}
}
