package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shaped is a generated LP with the structure and the proportions of the
// planner's capture LP on the synthetic fleet (DESIGN §3; core's synthInput)
// and the handles a slot refresh rewrites. Every class has two utility
// levels and is admitted at every other center; each admitted (class,
// level, center) commodity has a capacity share phi and one flow x per
// front-end under a GE row servers·μ·phi − Σ_s x_s ≥ servers/deadline, so a
// center's commodities reserve most of its share whether they carry flow or
// not; each (class, front-end) has an LE arrival row over the class's
// flows and each center an LE row Σ phi ≤ 1. 20 × 100 × 3 is 2 000
// commodities: 2 160 rows × 8 000 columns.
type shaped struct {
	m        *Model
	S        int // front-ends
	comms    []shapedCommodity
	arrRows  []int     // arrival rows, k·S + s
	arrivals []float64 // their base budgets
	price    []float64 // base price per center
	haul     []float64 // transfer cost per (front-end, center)
}

type shapedCommodity struct {
	l       int // center
	utility float64
	energy  float64
	flows   []int // x variables, one per front-end
}

func dispatchShaped(K, L, S int, seed int64) *shaped {
	rng := rand.New(rand.NewSource(seed))
	d := &shaped{m: NewModel(), S: S}
	m := d.m
	n := K * L // commodities: two levels × half the (class, center) pairs
	m.Grow(n*(S+1), n+K*S+L, 2*n*(S+1))
	const servers = 4
	var terms []Term
	byClass, byCenter := make([][]int, K), make([][]int, L)
	for k := 0; k < K; k++ {
		for l := 0; l < L; l++ {
			if (l*7+k)%2 != 0 {
				continue // priced out
			}
			mu := 900 + 100*rng.Float64()
			for _, lv := range []struct{ utility, deadline float64 }{{12 + float64(k), 0.02}, {0.45 * (12 + float64(k)), 0.08}} {
				c := shapedCommodity{l: l, utility: lv.utility, energy: 0.0004 + 0.0001*rng.Float64()}
				phi := m.AddVariable(fmt.Sprintf("phi_%d_%d_%d", k, l, len(d.comms)), 0)
				terms = append(terms[:0], Term{Var: phi, Coef: servers * mu})
				for s := 0; s < S; s++ {
					x := m.AddVariable(fmt.Sprintf("x_%d_%d_%d_%d", k, l, len(d.comms), s), 0)
					c.flows = append(c.flows, x)
					terms = append(terms, Term{Var: x, Coef: -1})
				}
				m.AddConstraint(fmt.Sprintf("cap_%d", len(d.comms)), terms, GE, servers/lv.deadline)
				byClass[k], byCenter[l] = append(byClass[k], len(d.comms)), append(byCenter[l], phi)
				d.comms = append(d.comms, c)
			}
		}
	}
	for k := 0; k < K; k++ {
		for s := 0; s < S; s++ {
			terms = terms[:0]
			for _, ci := range byClass[k] {
				terms = append(terms, Term{Var: d.comms[ci].flows[s], Coef: 1})
			}
			d.arrRows = append(d.arrRows, m.AddConstraint(fmt.Sprintf("arr_%d_%d", k, s), terms, LE, 0))
			d.arrivals = append(d.arrivals, 400+180*rng.Float64())
		}
	}
	for l := 0; l < L; l++ {
		terms = terms[:0]
		for _, phi := range byCenter[l] {
			terms = append(terms, Term{Var: phi, Coef: 1})
		}
		m.AddConstraint(fmt.Sprintf("share_%d", l), terms, LE, 1)
		d.price = append(d.price, 30+8*rng.Float64())
		for s := 0; s < S; s++ {
			d.haul = append(d.haul, 0.01+0.05*rng.Float64())
		}
	}
	d.refresh(rng, 0)
	return d
}

// refresh rewrites the model's numbers in place the way a slot boundary
// does — arrivals within ±amp of their base, prices within ±⅔·amp — and
// leaves the structure, and so the model's stamp, alone.
func (d *shaped) refresh(rng *rand.Rand, amp float64) {
	wobble := func(amp float64) float64 { return 1 + amp*(2*rng.Float64()-1) }
	for i, row := range d.arrRows {
		d.m.SetRHS(row, d.arrivals[i]*wobble(amp))
	}
	price := make([]float64, len(d.price))
	for l := range price {
		price[l] = d.price[l] * wobble(amp*2/3)
	}
	for _, c := range d.comms {
		for s, x := range c.flows {
			d.m.SetObjective(x, c.utility-price[c.l]*c.energy-d.haul[c.l*d.S+s])
		}
	}
}

// TestHotPivotWorkIsSparse holds the kernel to what it is for: on a
// 2 160-row dispatch-shaped LP re-solved hot across 40 slots of drift, the
// lists a pivot walks — the entering column's FTRAN image, the leaving row
// of B⁻¹, the matrix rows the reduced-cost update reads — average a small
// multiple of the counts DESIGN §12.2 records for this chain (~40, ~120 and
// ~2 000), where a dense pass is 2 160 positions, 2 160 rows and all
// 18 160 entries of the matrix. Counted by the kernel's own tallies, not
// timed. The chain crosses the eta file's bound, so it also checks that a
// refactorization reads as one and not as a crashed basis.
func TestHotPivotWorkIsSparse(t *testing.T) {
	d := dispatchShaped(20, 100, 3, 1)
	rng := rand.New(rand.NewSource(2))
	var s Solver
	if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if d.m.NumConstraints() != 2160 || d.m.NumVariables() != 8000 {
		t.Fatalf("fixture is %d × %d, want 2160 × 8000", d.m.NumConstraints(), d.m.NumVariables())
	}
	var sum walked
	pivots, refactors := 0, 0
	for slot := 1; slot <= 40; slot++ {
		d.refresh(rng, 0.05)
		if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		out := s.LastOutcome()
		if out.Path != "hot" || out.FellBack || out.ImportPivots != 0 {
			t.Fatalf("slot %d ran %+v, want a hot re-solve that crashes nothing", slot, out)
		}
		k := s.ws.k.(*sparseSolve)
		sum.image, sum.rho, sum.row = sum.image+k.walked.image, sum.rho+k.walked.rho, sum.row+k.walked.row
		pivots, refactors = pivots+out.WarmPivots, refactors+out.Refactors
	}
	if pivots < 300 || refactors < pivots/sparseRefactorEvery {
		t.Fatalf("fixture drifted: %d pivots and %d refactorizations in 40 slots", pivots, refactors)
	}
	image, rho, row := sum.image/pivots, sum.rho/pivots, sum.row/pivots
	t.Logf("%d pivots, %d refactorizations; a pivot walks %d image, %d rho and %d matrix-row entries", pivots, refactors, image, rho, row)
	if image > 3*40 || rho > 3*120 || row > 3*2000 {
		t.Errorf("a hot pivot walks %d image, %d rho and %d matrix-row entries on average, budget %d, %d and %d", image, rho, row, 3*40, 3*120, 3*2000)
	}
}

// TestFreshStartWorkIsSparse holds a start-over on the LU kernel to what
// each pivot changes: on the 2 160-row dispatch-shaped LP's all-slack
// start the zero-cost repair turns to Bland's rule after 64 stalled pivots
// and makes most of its ~2 000 there, and each of its leaving choices
// averages a small multiple of the ~31 entries DESIGN §12.2 records for it
// — the violator set's words, the rows each pivot keeps it from and the
// rebuilds after a refactorization, amortized — where a scan reads all
// 2 160 rows. Every Bland choice is held to the two scans (blandTwoScans).
// The eta updates its FTRANs and BTRANs visit stay within a small multiple
// of freshEtaVisits, where walking the whole file every time visited
// ~214 000.
func TestFreshStartWorkIsSparse(t *testing.T) {
	d := dispatchShaped(20, 100, 3, 1)
	var s Solver
	seen := holdBlandToTwoScans(t, &s.sparse)
	if _, err := s.SolveFresh(d.m, Options{}); err != nil {
		t.Fatal(err)
	}
	out, k := s.LastOutcome(), &s.sparse
	if out.Path != "fresh" || !out.Sparse || out.FellBack {
		t.Fatalf("ran %+v, want a sparse fresh start", out)
	}
	if k.walked.bland < 1000 || seen.choices != k.walked.bland {
		t.Fatalf("fixture drifted: %d of %d pivots chose under Bland's rule, %d seen", k.walked.bland, out.WarmPivots, seen.choices)
	}
	reads := k.walked.blandReads / k.walked.bland
	t.Logf("%d pivots, %d refactorizations; %d Bland choices read %d entries each", out.WarmPivots, out.Refactors, k.walked.bland, reads)
	if reads > 3*31 {
		t.Errorf("a Bland choice reads %d entries on average, budget %d", reads, 3*31)
	}
	ft, bt := k.walked.ftran, k.walked.btran
	t.Logf("eta updates: FTRAN visited %d and applied %d, BTRAN visited %d and applied %d", ft.visited, ft.applied, bt.visited, bt.applied)
	if visits := ft.visited + bt.visited; visits > 3*freshEtaVisits {
		t.Errorf("the start visited %d eta updates, budget %d", visits, 3*freshEtaVisits)
	}
}

// TestBlandLeavingIsTheTwoScans holds Bland's dual leaving choice, read off
// the kept violator set, to the two scans it replaced on LPs that start in
// Bland mode: one of FuzzKernelDifferential's seeds solved fresh, warm and
// hot after drift, and one of FuzzTrialRollback's dispatch-shaped LPs
// solved as trials with commodities taken out, so fixed basics above tol
// leave at their upper bound.
func TestBlandLeavingIsTheTwoScans(t *testing.T) {
	bland := Options{Bland: true}
	t.Run("kernel-differential", func(t *testing.T) {
		data := []byte{1, 8, 7, 6, 2, 8, 5, 5, 5, 0, 9, 1, 5, 0, 2, 6, 0, 5, 5, 1, 0, 5, 2, 0}
		s := onSparse()
		seen := holdBlandToTwoScans(t, &s.sparse)
		held := fuzzLP(2, 3, data, 0)
		for _, m := range []*Model{held, copyNumbers(held, fuzzLP(2, 3, data, 1))} {
			if _, err := s.SolveWarm(m, nil, bland); err != nil {
				t.Fatal(err)
			}
		}
		if seen.choices == 0 {
			t.Fatal("no choice was made under Bland's rule")
		}
	})
	t.Run("trial-rollback", func(t *testing.T) {
		d := dispatchShaped(2, 3, 2, 1)
		s := onSparse()
		if _, err := s.SolveWarm(d.m, nil, bland); err != nil || !s.Checkpoint() {
			t.Fatalf("no kernel to checkpoint (%v)", err)
		}
		seen := holdBlandToTwoScans(t, &s.sparse)
		for ci := range d.comms { // out one at a time, as FuzzTrialRollback takes it
			_, _, need := d.m.RowSpec(ci)
			for _, out := range []bool{true, false} {
				for _, x := range append([]int{d.comms[ci].flows[0] - 1}, d.comms[ci].flows...) {
					d.m.Fix(x, out)
				}
				if out {
					d.m.SetRHS(ci, 0)
				} else {
					d.m.SetRHS(ci, need)
				}
				if s.Trial(d.m, bland, math.Inf(-1)) == nil {
					t.Fatalf("commodity %d out %v: the trial did not answer", ci, out)
				}
			}
		}
		if seen.choices == 0 || seen.ups == 0 {
			t.Fatalf("%d choices under Bland's rule, %d of them a fixed basic leaving up", seen.choices, seen.ups)
		}
	})
}

// blandSeen counts the Bland choices holdBlandToTwoScans checked, and how
// many of them had a fixed basic leave up.
type blandSeen struct{ choices, ups int }

// holdBlandToTwoScans sets k's onBland to check every Bland choice against
// blandTwoScans.
func holdBlandToTwoScans(t *testing.T, k *sparseSolve) *blandSeen {
	t.Helper()
	seen := new(blandSeen)
	k.onBland = func(leave int, up bool) {
		if seen.choices++; up {
			seen.ups++
		}
		if wl, wu := blandTwoScans(k, k.opts.Tol); leave != wl || up != wu {
			t.Errorf("choice %d: Bland's rule left position %d (up %v), the two scans say %d (up %v)", seen.choices, leave, up, wl, wu)
		}
	}
	return seen
}

// blandTwoScans is Bland's dual leaving choice by scans over every row: the
// negative basic value with the smallest basic column, then, on a model
// with pins, a fixed basic above tol with a smaller one, which leaves up.
func blandTwoScans(ss *sparseSolve, tol float64) (leave int, up bool) {
	fixed := ss.m.fixed
	leave, bestCol := -1, ss.ncols
	for r, v := range ss.xB {
		if v < -tol && ss.basis[r] < bestCol {
			leave, bestCol = r, ss.basis[r]
		}
	}
	for r, v := range ss.xB {
		if v > tol && ss.basis[r] < bestCol && fixed.has(ss.basis[r]) {
			leave, bestCol, up = r, ss.basis[r], true
		}
	}
	return leave, up
}

// freshEtaVisits is the eta updates TestFreshStartWorkIsSparse's start
// visits: 16 461, of which 2 864 act, every one of them in the priced
// finish's 181 pivots, which walk their file whole. The indexed walks of
// the repair's 2 000 find no update that acts, so they visit none.
const freshEtaVisits = 16_500

// BenchmarkFreshStart times a start-over on the LU kernel with no planner
// on top: SolveFresh of the 20×100×3 dispatch-shaped LP from the all-slack
// basis, its zero-cost repair (mostly under Bland's rule) and the primal
// finish, on a reused Solver. make profile W=fresh profiles it.
func BenchmarkFreshStart(b *testing.B) {
	d := dispatchShaped(20, 100, 3, 1)
	var s Solver
	for i := 0; i < 3; i++ { // the slabs settle at their size
		if _, err := s.SolveFresh(d.m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	pivots, refactors, etas := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveFresh(d.m, Options{}); err != nil {
			b.Fatal(err)
		}
		out := s.LastOutcome()
		if out.Path != "fresh" || !out.Sparse {
			b.Fatalf("iteration %d ran %+v, want a sparse fresh start", i, out)
		}
		pivots, refactors = pivots+out.WarmPivots, refactors+out.Refactors
		etas += s.sparse.walked.ftran.visited + s.sparse.walked.btran.visited
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
	b.ReportMetric(float64(etas)/float64(b.N), "etas/op")
}

// BenchmarkHotPivot times the sparse kernel's hot re-solve alone, with no
// planner on top: a dispatch-shaped LP at fleet-large's size, refreshed in
// place each iteration by a slot's worth of drift and re-solved on the
// retained factors. The three drifts give roughly 0, a few and ~15 pivots
// a solve, so a solve's fixed cost and a pivot's can be told apart;
// ns/pivot is whole solves over their pivots. make profile W=kernel
// profiles slot. The age arms re-solve after the slot drift from
// an eta file held at 0, 40 and 80 updates (ageEtas), so what a pivot
// pays for the file's age shows on its own; at 80 a re-solve of 20 pivots
// or more reaches the bound and refactorizes (refactors/op).
func BenchmarkHotPivot(b *testing.B) {
	for _, bc := range []struct {
		name string
		amp  float64
	}{{"still", 0}, {"calm", 0.007}, {"slot", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			d := dispatchShaped(20, 100, 3, 1)
			rng := rand.New(rand.NewSource(2))
			var s Solver
			if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
				b.Fatal(err)
			}
			pivots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d.refresh(rng, bc.amp)
				b.StartTimer()
				if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
					b.Fatal(err)
				}
				if out := s.LastOutcome(); out.Path != "hot" || !out.Sparse {
					b.Fatalf("iteration %d ran %+v, want a sparse hot re-solve", i, out)
				}
				pivots += s.LastOutcome().WarmPivots
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			if pivots > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
			}
		})
	}
	for _, age := range []int{0, 40, 80} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			d := dispatchShaped(20, 100, 3, 1)
			rng := rand.New(rand.NewSource(2))
			var s Solver
			if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
				b.Fatal(err)
			}
			pivots, refactors := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ageEtas(b, &s, age)
				d.refresh(rng, 0.05)
				b.StartTimer()
				if _, err := s.SolveWarm(d.m, nil, Options{}); err != nil {
					b.Fatal(err)
				}
				out := s.LastOutcome()
				if out.Path != "hot" || !out.Sparse {
					b.Fatalf("iteration %d ran %+v, want a sparse hot re-solve", i, out)
				}
				pivots, refactors = pivots+out.WarmPivots, refactors+out.Refactors
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
			if pivots > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
			}
		})
	}
}

// ageEtas refactorizes s's retained sparse kernel, which sits at an
// optimum, and then leaves n updates in its eta file on the same basis:
// structural columns, non-basic, are each pivoted in at the position where
// their FTRAN image is largest and straight back out. Each update is a
// real pivot's, and the next re-solve starts from the basis, and so the
// optimum, it would have started from. The solver's count of hot uses is
// set back too, so the re-solve is not refactorized as stale and runs on
// this file.
func ageEtas(b *testing.B, s *Solver, n int) {
	k := s.ws.k.(*sparseSolve)
	if !k.refactorize() {
		b.Fatal("refactorization failed")
	}
	s.ws.uses = 0
	for j := 0; k.etas.Len() < n; j++ {
		if j == k.n {
			b.Fatalf("%d structural columns pivoted in and out give %d updates, want %d", j, k.etas.Len(), n)
		}
		if k.inBasis[j] >= 0 {
			continue
		}
		w, r, big := k.ftranCol(j), -1, 1e-3
		for _, i := range w.Ind {
			if a := math.Abs(w.Val[i]); a > big {
				r, big = i, a
			}
		}
		if r < 0 {
			continue
		}
		out := k.basis[r]
		for _, c := range []int{j, out} {
			if c == out {
				k.ftranCol(out)
			}
			k.btranUnit(r)
			if !k.pivot(r, c) {
				b.Fatalf("pivoting column %d in at position %d failed", c, r)
			}
		}
	}
}

// BenchmarkKernelCrossover is where sparseMinRows comes from: dispatch-shaped
// LPs from 12 to 88 rows, each put through both warm kernels by the
// package's seam, on what a planner asks of a warm solver slot after slot —
// a hot re-solve of one model after a slot's worth of drift in costs and
// arrival budgets (BenchmarkHotPivot's; the refresh in place is inside the
// timing, the same few stores on either kernel). Four classes compete for
// every center and the arrivals are scaled to 1.3 times what the centers can
// serve, so capacity binds as on the paper's day: the basis is mostly
// structural columns, which the LU kernel pays for and the tableau does not.
// The constant is the smallest size from which the LU kernel wins; DESIGN
// §12.1 records the table.
func BenchmarkKernelCrossover(b *testing.B) {
	const ring = 64 // drifted siblings cycled through, so no solve repeats the last
	for _, sz := range []struct{ rows, K, L, S int }{
		{12, 2, 2, 3}, {24, 4, 4, 1}, {32, 4, 4, 3}, {40, 4, 4, 5}, {48, 4, 8, 2}, {58, 4, 10, 2}, {64, 4, 12, 1}, {88, 4, 16, 2},
	} {
		rng := rand.New(rand.NewSource(2))
		sibling := func(amp float64) *Model {
			d := dispatchShaped(sz.K, sz.L, sz.S, 1)
			for i := range d.arrivals { // ~490 a stream against ~3 600 a center
				d.arrivals[i] *= 1.3 * float64(sz.L) * 3600 / float64(sz.K*sz.S*490)
			}
			d.refresh(rng, amp)
			return d.m
		}
		held := sibling(0)
		if held.NumConstraints() != sz.rows {
			b.Fatalf("fixture has %d rows, want %d", held.NumConstraints(), sz.rows)
		}
		siblings := make([]*Model, ring)
		for i := range siblings {
			siblings[i] = sibling(0.05)
		}
		solve := func(s *Solver, i int) (*Result, error) {
			return s.SolveWarm(copyNumbers(held, siblings[i%ring]), nil, Options{})
		}
		for _, kn := range ladderKernels {
			b.Run(fmt.Sprintf("rows=%d/hot/%s", sz.rows, kn.name), func(b *testing.B) {
				s := kn.solver()
				if _, err := solve(s, ring-1); err != nil { // arms the hot chain
					b.Fatal(err)
				}
				pivots := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := solve(s, i); err != nil {
						b.Fatal(err)
					}
					out := s.LastOutcome()
					if out.FellBack || out.Sparse != kn.sparse || out.Path != "hot" {
						b.Fatalf("iteration %d ran %+v, want hot on the %s kernel", i, out, kn.name)
					}
					pivots += out.WarmPivots
				}
				b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			})
		}
	}
}
