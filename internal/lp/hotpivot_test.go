package lp

import (
	"fmt"
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
// multiple of the counts DESIGN §14.3 records for this chain (~40, ~120 and
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

// BenchmarkHotPivot times the sparse kernel's hot re-solve alone, with no
// planner on top: a dispatch-shaped LP at fleet-large's size, refreshed in
// place each iteration by a slot's worth of drift and re-solved on the
// retained factors. The three drifts give roughly 0, a few and ~15 pivots
// a solve, so a solve's fixed cost and a pivot's can be told apart;
// ns/pivot is whole solves over their pivots. make profile W=kernel
// profiles the middle one.
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
