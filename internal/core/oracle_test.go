package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/exp"
	"profitlb/internal/lp"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
)

// bigM is PAPER.md's program for one slot (Eqs. 5–8 with the step TUFs of
// Eqs. 11–26) as a mixed-integer LP, for instances small enough to solve
// exactly: one binary z per (type k, center l, level q), at most one of a
// pair's levels on, none meaning the pair serves nothing and reserves
// nothing. The M_l homogeneous servers of a center enter as one group of
// M_l, as in the planners' aggregated layout, so a pair's delay condition
// R ≤ D reads x ≥ M/D and R ≥ D + δ reads x ≤ M/(D + δ), where
//
//	x = M·C·μ_k·φ_{k,l} − Σ_{s,q} λ_{k,s,l,q}
//
// is the pair's spare service rate. Which conditions level q switches on
// is read off tuf.NewConstraintSeries: a constraint binds at U = U_q when
// its utility gap there is 0, and its time gap names the condition. Eq. 6's
// own deadline R ≤ D_k binds whenever the pair is on. A condition x ≥ M/D
// enters as x ≥ (M/D)·z_q, a condition x ≤ M/(D + δ) with the big-M x's
// bound M·C·μ_k: x ≤ M/(D + δ) + M·C·μ_k·(1 − z_q). λ_{k,s,l,q} ≤ λ_{k,s}·z_q
// routes traffic only at the level that is on.
type bigM struct {
	in *core.Input
	// fit leaves out every level whose zero-load reservation cannot fit
	// a center on its own, over capReservations' margin, which no planner
	// commits: the program with the planners' levels.
	fit   bool
	pairs []struct{ k, l int }
	// Column indices, per pair p: z[p][q], phi[p], lam[p][q][s].
	z   [][]int
	phi []int
	lam [][][]int
}

func newBigM(in *core.Input, fit bool) *bigM {
	sys := in.Sys
	o := &bigM{in: in, fit: fit}
	col := 0
	for k := 0; k < sys.K(); k++ {
		for l := 0; l < sys.L(); l++ {
			o.pairs = append(o.pairs, struct{ k, l int }{k, l})
			nq := sys.Classes[k].TUF.NumLevels()
			zs, lams := make([]int, nq), make([][]int, nq)
			for q := range zs {
				zs[q], col = col, col+1
			}
			o.phi = append(o.phi, col)
			col++
			for q := range lams {
				lams[q] = make([]int, sys.S())
				for s := range lams[q] {
					lams[q][s], col = col, col+1
				}
			}
			o.z, o.lam = append(o.z, zs), append(o.lam, lams)
		}
	}
	return o
}

// model is the program's LP relaxation, z ∈ [0, 1], with the binaries in
// fix held at their values.
func (o *bigM) model(fix map[int]float64) *lp.Model {
	in, sys := o.in, o.in.Sys
	m := lp.NewModel()
	for _, pr := range o.pairs {
		levels := sys.Classes[pr.k].TUF.Levels()
		for q := range levels {
			m.AddVariable(fmt.Sprintf("z_%d_%d_%d", pr.k, pr.l, q), 0)
		}
		m.AddVariable(fmt.Sprintf("phi_%d_%d", pr.k, pr.l), 0)
		for q, lev := range levels {
			for s := 0; s < sys.S(); s++ {
				m.AddVariable(fmt.Sprintf("lam_%d_%d_%d_%d", pr.k, s, pr.l, q),
					sys.Slot()*sys.UnitProfit(pr.k, s, pr.l, lev.Utility, in.Prices[pr.l]))
			}
		}
	}
	for p, pr := range o.pairs {
		dc := &sys.Centers[pr.l]
		M, rate := float64(dc.Servers), dc.Capacity*dc.ServiceRate[pr.k]
		ts := sys.Classes[pr.k].TUF
		// spare returns x's terms plus extra.
		spare := func(extra ...lp.Term) []lp.Term {
			terms := []lp.Term{{Var: o.phi[p], Coef: M * rate}}
			for q := range o.lam[p] {
				for _, v := range o.lam[p][q] {
					terms = append(terms, lp.Term{Var: v, Coef: -1})
				}
			}
			return append(terms, extra...)
		}
		on := make([]lp.Term, 0, len(o.z[p]))
		for q, zq := range o.z[p] {
			on = append(on, lp.Term{Var: zq, Coef: 1})
			ub := 1.0
			if o.fit && 1/(ts.Level(q).Deadline*rate) > 0.999 { // capReservations' margin
				ub = 0
			}
			m.AddConstraint(fmt.Sprintf("zub_%d_%d", p, q), []lp.Term{{Var: zq, Coef: 1}}, lp.LE, ub)
			if v, ok := fix[zq]; ok {
				m.AddConstraint(fmt.Sprintf("fix_%d_%d", p, q), []lp.Term{{Var: zq, Coef: 1}}, lp.EQ, v)
			}
			for s, v := range o.lam[p][q] {
				m.AddConstraint(fmt.Sprintf("route_%d_%d_%d", p, q, s), []lp.Term{{Var: v, Coef: 1}, {Var: zq, Coef: -in.Arrivals[s][pr.k]}}, lp.LE, 0)
			}
		}
		m.AddConstraint(fmt.Sprintf("onelevel_%d", p), on, lp.LE, 1)
		// Eq. 6: R ≤ D_k whenever the pair is on.
		deadline := make([]lp.Term, len(on))
		for i, t := range on {
			deadline[i] = lp.Term{Var: t.Var, Coef: -M / ts.Deadline()}
		}
		m.AddConstraint(fmt.Sprintf("deadline_%d", p), spare(deadline...), lp.GE, 0)
		// Eqs. 11–26: each level's conditions, as the series states them.
		series := tuf.NewConstraintSeries(ts, 0, 0, ts.Deadline())
		for ci, c := range series.Constraints {
			g0 := c.TimeGap(0)
			slope := c.TimeGap(1) - g0
			for q, lev := range ts.Levels() {
				zq := o.z[p][q]
				switch gap := c.UtilityGap(lev.Utility); {
				case gap > 1e-12: // this level can never satisfy the series
					m.AddConstraint(fmt.Sprintf("never_%d_%d_%d", p, ci, q), []lp.Term{{Var: zq, Coef: 1}}, lp.EQ, 0)
				case gap < -1e-12: // relaxed by Θ at this level
				case slope > 0: // R ≤ −g0
					m.AddConstraint(fmt.Sprintf("upper_%d_%d_%d", p, ci, q), spare(lp.Term{Var: zq, Coef: -M / -g0}), lp.GE, 0)
				default: // R ≥ g0
					big := M * rate
					m.AddConstraint(fmt.Sprintf("lower_%d_%d_%d", p, ci, q), spare(lp.Term{Var: zq, Coef: big}), lp.LE, M/g0+big)
				}
			}
		}
	}
	for k := 0; k < sys.K(); k++ {
		for s := 0; s < sys.S(); s++ {
			var terms []lp.Term
			for p, pr := range o.pairs {
				if pr.k != k {
					continue
				}
				for q := range o.lam[p] {
					terms = append(terms, lp.Term{Var: o.lam[p][q][s], Coef: 1})
				}
			}
			m.AddConstraint(fmt.Sprintf("arr_%d_%d", k, s), terms, lp.LE, in.Arrivals[s][k])
		}
	}
	for l := 0; l < sys.L(); l++ {
		var terms []lp.Term
		for p, pr := range o.pairs {
			if pr.l == l {
				terms = append(terms, lp.Term{Var: o.phi[p], Coef: 1})
			}
		}
		m.AddConstraint(fmt.Sprintf("share_%d", l), terms, lp.LE, 1)
	}
	return m
}

// solve is optimum for instances the oracle must solve.
func (o *bigM) solve(t *testing.T) (float64, []int) {
	t.Helper()
	best, levels, err := o.optimum()
	if err != nil {
		t.Fatalf("oracle relaxation: %v", err)
	}
	return best, levels
}

// optimum maximises the program by depth-first branch-and-bound over the
// LP relaxations, branching on the first fractional binary, z = 1 first.
// It returns the optimum and each pair's level (-1: off), or the first
// relaxation the LP solver could not solve.
func (o *bigM) optimum() (float64, []int, error) {
	best, levels := math.Inf(-1), []int(nil)
	var failed error
	var rec func(fix map[int]float64)
	rec = func(fix map[int]float64) {
		if failed != nil {
			return
		}
		res, err := o.model(fix).SolveOpts(lp.Options{})
		if errors.Is(err, lp.ErrInfeasible) {
			return
		}
		if err != nil {
			failed = err
			return
		}
		if res.Objective <= best+1e-9*(1+math.Abs(best)) {
			return
		}
		for _, zs := range o.z {
			for _, zq := range zs {
				if v := res.X[zq]; math.Abs(v-math.Round(v)) > 1e-7 {
					for _, b := range []float64{1, 0} {
						next := map[int]float64{zq: b}
						for j, w := range fix {
							next[j] = w
						}
						rec(next)
					}
					return
				}
			}
		}
		best, levels = res.Objective, make([]int, len(o.z))
		for p, zs := range o.z {
			levels[p] = -1
			for q, zq := range zs {
				if res.X[zq] > 0.5 {
					levels[p] = q
				}
			}
		}
	}
	rec(map[int]float64{})
	return best, levels, failed
}

// eq5 is a plan's slot profit as Eq. 5 counts it: utility less energy and
// transfer, over the slot, on every dispatched rate.
func eq5(in *core.Input, plan *core.Plan) float64 {
	sys := in.Sys
	var sum float64
	for k := range plan.Rate {
		for q := range plan.Rate[k] {
			u := sys.Classes[k].TUF.Level(q).Utility
			for s := range plan.Rate[k][q] {
				for l, v := range plan.Rate[k][q][s] {
					sum += sys.Slot() * v * sys.UnitProfit(k, s, l, u, in.Prices[l])
				}
			}
		}
	}
	return sum
}

// oracleCases are the instances the oracle is held against: §VII's slot 15
// (the 15:00 slot of its 14:00–19:00 window, at the setup's unit scale and
// at Fig. 10's high- and low-workload scales) and a three-level variant of
// it, the second type's loose level split in two.
func oracleCases(t testing.TB) map[string]*core.Input {
	t.Helper()
	cases := map[string]*core.Input{}
	slot15 := func(setup *exp.TwoLevelSetup) *core.Input {
		cfg := setup.Config()
		src, err := sim.NewInputSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var in *core.Input
		for slot := cfg.StartSlot; slot <= 15; slot++ {
			if in, err = src.PlannerInput(slot); err != nil {
				t.Fatal(err)
			}
		}
		return in
	}
	cases["slot15"] = slot15(exp.NewTwoLevelSetup())
	cases["slot15-x0.5"] = slot15(exp.NewTwoLevelSetupScaled(0.5))
	cases["slot15-x2"] = slot15(exp.NewTwoLevelSetupScaled(2))
	three := slot15(exp.NewTwoLevelSetup())
	sys := *three.Sys
	sys.Classes = append([]datacenter.RequestClass(nil), sys.Classes...)
	sys.Classes[1].TUF = tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.004}, {Utility: 8, Deadline: 0.015}, {Utility: 3, Deadline: 0.04}})
	three.Sys = &sys
	cases["slot15-3level"] = three
	return cases
}

// TestBigMOracle holds the planners to PAPER.md's program solved exactly.
// LevelSearch's exhaustive and branch-and-bound strategies, which walk
// each pair's levels and off, reach its optimum. Neither greedy climb —
// LevelSearch's, and Optimized's greedy seed, its start a trial on the
// held LP — exceeds the program; LevelSearch's never switches a pair off,
// and what that costs it is logged (DESIGN §15). Optimized with Refine,
// warm (its second slot) and cold, never falls below the program on these
// homogeneous centers, and the gap by which its split-commodity LP beats
// it is logged.
func TestBigMOracle(t *testing.T) {
	for name, in := range oracleCases(t) {
		t.Run(name, func(t *testing.T) {
			z, levels := newBigM(in, false).solve(t)
			if math.IsInf(z, -1) || z <= 0 {
				t.Fatalf("oracle found no profitable plan (%v)", z)
			}
			above := func(got float64) bool { return got > z+1e-7*(1+math.Abs(z)) }
			for _, st := range []core.Strategy{core.Exhaustive, core.BranchBound} {
				ls := core.NewLevelSearch()
				ls.Strategy = st
				if got := eq5(in, mustPlan(t, ls, in)); math.Abs(got-z) > 1e-7*(1+math.Abs(z)) {
					t.Errorf("%v commits %.12g; the program %.12g (levels %v)", st, got, z, levels)
				}
			}
			greedy := core.NewLevelSearch()
			greedy.Strategy = core.Greedy
			got := eq5(in, mustPlan(t, greedy, in))
			if above(got) {
				t.Errorf("greedy level search commits %.12g above the oracle %.12g", got, z)
			}
			t.Logf("greedy level search: %.10g, %.3g %% below the program's %.10g (levels %v)", got, 100*(z-got)/z, z, levels)
			o := core.NewOptimized()
			seed, path, err := core.GreedySeedObjective(o, in)
			if err != nil {
				t.Fatal(err)
			}
			if path != "trial" || above(seed) {
				t.Errorf("Optimized's greedy seed, solved by %q, reaches %.12g; the oracle %.12g", path, seed, z)
			}
			for _, warm := range []bool{true, false} {
				o := core.NewOptimized()
				o.WarmStart = warm
				mustPlan(t, o, in)
				got := eq5(in, mustPlan(t, o, in))
				if got < z-1e-7*(1+math.Abs(z)) {
					t.Errorf("Optimized (warm %v) commits %.12g below the oracle %.12g", warm, got, z)
				}
				t.Logf("Optimized (warm %v): %.10g, %.3g %% above the program", warm, got, 100*(got-z)/z)
			}
		})
	}
}

func mustPlan(t *testing.T, p core.Planner, in *core.Input) *core.Plan {
	t.Helper()
	plan, err := p.Plan(in)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return plan
}

// oracleBounds are the ranges a fuzzed oracle instance draws from: ≤ 2
// centers × 2 front-ends × 2 types of ≤ 3 levels, deadlines increasing
// and utilities decreasing along a type's levels. A value read outside
// its range is clamped into it, so every instance inside the ranges — the
// four oracleCases among them — encodes exactly.
var oracleBounds = struct {
	transfer, utility, deadline, distance, servers, capacity, service, energy, price, arrival [2]float64
}{
	transfer: [2]float64{0, 0.001}, utility: [2]float64{0.1, 50}, deadline: [2]float64{0.001, 0.5},
	distance: [2]float64{0, 3000}, servers: [2]float64{1, 6}, capacity: [2]float64{0.5, 2},
	service: [2]float64{100, 20000}, energy: [2]float64{0, 0.01}, price: [2]float64{0, 1},
	arrival: [2]float64{0, 50000},
}

// oracleCodec walks an oracle instance's numbers in one fixed order, so
// one walk both encodes an instance and decodes fuzz bytes into one: the
// dimensions first (a byte each), then every number as 8 little-endian
// bytes of its float64.
type oracleCodec struct {
	data []byte
	out  []byte     // encoding, when non-nil
	rng  *rand.Rand // draws every value in range, when non-nil: log-uniformly over a positive range
}

func (c *oracleCodec) dim(v *int, n int) {
	if c.out != nil {
		c.out = append(c.out, byte(*v-1))
		return
	}
	if c.rng != nil {
		*v = 1 + c.rng.Intn(n)
		return
	}
	var b byte
	if len(c.data) > 0 {
		b, c.data = c.data[0], c.data[1:]
	}
	*v = 1 + int(b)%n
}

func (c *oracleCodec) num(v *float64, bounds [2]float64) {
	if c.out != nil {
		c.out = binary.LittleEndian.AppendUint64(c.out, math.Float64bits(*v))
		return
	}
	if c.rng != nil {
		if lo, hi := bounds[0], bounds[1]; lo > 0 {
			*v = lo * math.Pow(hi/lo, c.rng.Float64())
		} else {
			*v = lo + c.rng.Float64()*(hi-lo)
		}
		return
	}
	var buf [8]byte
	c.data = c.data[copy(buf[:], c.data):]
	x := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	if math.IsNaN(x) {
		x = bounds[0]
	}
	*v = min(max(x, bounds[0]), bounds[1])
}

// walk encodes in (c.out non-nil) or decodes c.data into a new instance.
func (c *oracleCodec) walk(in *core.Input) *core.Input {
	b := &oracleBounds
	var K, S, L int
	if c.out != nil {
		K, S, L = in.Sys.K(), in.Sys.S(), in.Sys.L()
	}
	c.dim(&K, 2)
	c.dim(&S, 2)
	c.dim(&L, 2)
	sys := &datacenter.System{Classes: make([]datacenter.RequestClass, K), FrontEnds: make([]datacenter.FrontEnd, S), Centers: make([]datacenter.DataCenter, L)}
	out := &core.Input{Sys: sys, Arrivals: make([][]float64, S), Prices: make([]float64, L)}
	for k := range sys.Classes {
		var levels []tuf.Level
		nq := 0
		if c.out != nil {
			levels = in.Sys.Classes[k].TUF.Levels()
			nq = len(levels)
			sys.Classes[k].TransferCostPerMile = in.Sys.Classes[k].TransferCostPerMile
		}
		c.dim(&nq, 3)
		levels = append([]tuf.Level(nil), levels...)
		levels = append(levels, make([]tuf.Level, nq-len(levels))...)
		c.num(&sys.Classes[k].TransferCostPerMile, b.transfer)
		for q := range levels {
			c.num(&levels[q].Utility, b.utility)
			c.num(&levels[q].Deadline, b.deadline)
			if q > 0 {
				levels[q].Utility = min(levels[q].Utility, 0.8*levels[q-1].Utility)
				levels[q].Deadline = max(levels[q].Deadline, 1.25*levels[q-1].Deadline)
			}
		}
		sys.Classes[k].Name, sys.Classes[k].TUF = fmt.Sprintf("k%d", k), tuf.MustNew(levels)
	}
	for s := range sys.FrontEnds {
		fe := &sys.FrontEnds[s]
		fe.Name, fe.DistanceMiles = fmt.Sprintf("fe%d", s), make([]float64, L)
		out.Arrivals[s] = make([]float64, K)
		if c.out != nil {
			copy(fe.DistanceMiles, in.Sys.FrontEnds[s].DistanceMiles)
			copy(out.Arrivals[s], in.Arrivals[s])
		}
		for l := range fe.DistanceMiles {
			c.num(&fe.DistanceMiles[l], b.distance)
		}
		for k := range out.Arrivals[s] {
			c.num(&out.Arrivals[s][k], b.arrival)
		}
	}
	for l := range sys.Centers {
		dc := &sys.Centers[l]
		dc.Name, dc.ServiceRate, dc.EnergyPerRequest = fmt.Sprintf("dc%d", l), make([]float64, K), make([]float64, K)
		servers := 0.0
		if c.out != nil {
			src := &in.Sys.Centers[l]
			servers, dc.Capacity, out.Prices[l] = float64(src.Servers), src.Capacity, in.Prices[l]
			copy(dc.ServiceRate, src.ServiceRate)
			copy(dc.EnergyPerRequest, src.EnergyPerRequest)
		}
		c.num(&servers, b.servers)
		dc.Servers = int(servers)
		c.num(&dc.Capacity, b.capacity)
		for k := range dc.ServiceRate {
			c.num(&dc.ServiceRate[k], b.service)
			c.num(&dc.EnergyPerRequest[k], b.energy)
		}
		c.num(&out.Prices[l], b.price)
	}
	return out
}

func encodeOracle(in *core.Input) []byte {
	c := &oracleCodec{out: []byte{}}
	c.walk(in)
	return c.out
}

func decodeOracle(data []byte) *core.Input { return (&oracleCodec{data: data}).walk(nil) }

// FuzzBigMOracle holds TestBigMOracle's laws on generated instances: the
// exhaustive and branch-and-bound level searches reach the program's
// optimum where nothing is evicted in combination, no level search, greedy climb or greedy
// seed exceeds the program, and the level-relaxed bound (core.Bound) is
// at least the program and every planner. The corpus starts at the four
// oracleCases.
func FuzzBigMOracle(f *testing.F) {
	cases := oracleCases(f)
	for _, name := range []string{"slot15", "slot15-x0.5", "slot15-x2", "slot15-3level"} {
		data := encodeOracle(cases[name])
		if again := encodeOracle(decodeOracle(data)); !bytes.Equal(again, data) {
			f.Fatalf("%s does not decode to itself", name)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeOracle(data)
		if err := in.Validate(); err != nil {
			t.Skip(err)
		}
		if _, err := checkOracleLaws(t, in); err != nil {
			t.Skip(err)
		}
	})
}

// evictionFree reports whether level search's leaves are exactly the
// program's choices: at every center the largest reservations its pairs'
// levels can take add up within capReservations' margin, so nothing but
// a level that cannot fit on its own is ever evicted. Elsewhere an
// eviction can switch off, in combination, a pair the program keeps on,
// and a leaf may beat branch-and-bound's relaxation, which then stops
// short of the exhaustive optimum.
func evictionFree(in *core.Input) bool {
	sys := in.Sys
	for l := range sys.Centers {
		dc := &sys.Centers[l]
		var sum float64
		for k := range sys.Classes {
			var most float64
			for _, lev := range sys.Classes[k].TUF.Levels() {
				if r := 1 / (lev.Deadline * dc.Capacity * dc.ServiceRate[k]); r <= 0.999 {
					most = max(most, r)
				}
			}
			sum += most
		}
		if sum > 0.999 {
			return false
		}
	}
	return true
}

// oracleRun is what checkOracleLaws found on one instance: the program's
// optimum z, what the exhaustive and branch-and-bound searches commit, and
// whether they must reach the program with the planners' levels
// (evictionFree), which is z unless a level over capReservations' margin
// pays.
type oracleRun struct {
	z, exhaustive, branchBound float64
	exact                      bool
}

// checkOracleLaws holds the level searches and Optimized's greedy seed to
// the program, and the program and every planner to the level-relaxed
// bound — or returns an error when the oracle's own LP solver breaks down
// on the instance, which then proves nothing.
func checkOracleLaws(t *testing.T, in *core.Input) (oracleRun, error) {
	t.Helper()
	z, _, err := newBigM(in, false).optimum()
	if err != nil {
		return oracleRun{}, err
	}
	run := oracleRun{z: z, exact: evictionFree(in)}
	zf := z
	if run.exact {
		if zf, _, err = newBigM(in, true).optimum(); err != nil {
			return oracleRun{}, err
		}
	}
	zbar, err := core.Bound(in)
	if err != nil {
		t.Fatal(err)
	}
	above := func(got float64) bool { return got > z+1e-7*(1+math.Abs(z)) }
	// The level-relaxed bound is above the program and every planner.
	bounds := func(who string, got float64) {
		if got > zbar+1e-7*(1+math.Abs(zbar)) {
			t.Fatalf("%s reaches %.12g above the bound %.12g", who, got, zbar)
		}
	}
	bounds("the program", z)
	bounds("Optimized", eq5(in, mustPlan(t, core.NewOptimized(), in)))
	for _, st := range []core.Strategy{core.Exhaustive, core.BranchBound, core.Greedy} {
		ls := core.NewLevelSearch()
		ls.Strategy = st
		got := eq5(in, mustPlan(t, ls, in))
		if above(got) {
			t.Fatalf("%v commits %.12g above the program's %.12g", st, got, z)
		}
		bounds(st.String(), got)
		switch st {
		case core.Exhaustive:
			run.exhaustive = got
		case core.BranchBound:
			run.branchBound = got
		}
		if run.exact && st != core.Greedy && math.Abs(got-zf) > 1e-7*(1+math.Abs(zf)) {
			t.Fatalf("%v commits %.12g; the program %.12g, with the planners' levels %.12g", st, got, z, zf)
		}
	}
	seed, _, err := core.GreedySeedObjective(core.NewOptimized(), in)
	if err != nil {
		t.Fatal(err)
	}
	if above(seed) {
		t.Fatalf("Optimized's greedy seed reaches %.12g above the program's %.12g", seed, z)
	}
	bounds("Optimized's greedy seed", seed)
	return run, nil
}

// TestBigMOracleSweep holds FuzzBigMOracle's laws on 1 000 instances drawn
// from oracleBounds (log-uniformly where a range is positive) — on these
// draws the exact searches reach the program itself — and measures how
// often Optimized, warm and cold, commits below the program, and how
// often, where an eviction can switch pairs off in combination, the level
// searches stop below it (DESIGN §15).
func TestBigMOracleSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var below, n, unsolved, inexact, under, short int
	var worst float64
	for i := 0; i < 1000; i++ {
		in := (&oracleCodec{rng: rng}).walk(nil)
		if err := in.Validate(); err != nil {
			continue
		}
		run, err := checkOracleLaws(t, in)
		if err != nil {
			unsolved++
			t.Logf("instance %d: %v", i, err)
			continue
		}
		n++
		tol := 1e-7 * (1 + math.Abs(run.z))
		if run.exact && (math.Abs(run.exhaustive-run.z) > tol || math.Abs(run.branchBound-run.z) > tol) {
			t.Errorf("instance %d: exhaustive %.12g, branch-and-bound %.12g; the program %.12g", i, run.exhaustive, run.branchBound, run.z)
		}
		if !run.exact {
			inexact++
			if run.exhaustive < run.z-tol {
				under++
			}
			if run.branchBound < run.exhaustive-1e-7*(1+math.Abs(run.exhaustive)) {
				short++
			}
		}
		for _, warm := range []bool{true, false} {
			o := core.NewOptimized()
			o.WarmStart = warm
			if got := eq5(in, mustPlan(t, o, in)); got < run.z-1e-7*(1+math.Abs(run.z)) {
				below++
				worst = max(worst, (run.z-got)/run.z)
				t.Logf("instance %d (warm %v): Optimized %.10g below the program's %.10g", i, warm, got, run.z)
			}
		}
	}
	t.Logf("Optimized below the program on %d of %d runs (%d instances x warm, cold), worst by %.3g %%", below, 2*n, n, 100*worst)
	t.Logf("%d instances can evict in combination: on %d the exhaustive search stops below the program, on %d branch-and-bound below the exhaustive search; the oracle's LP broke down on %d", inexact, under, short, unsolved)
}

// TestTrialsMatchSubsetLPs: on the oracle cases and the capacity-limited
// refine fixture, every move a warm refine planner solves as a trial on its
// held LP — the universe's LP with the set's outsiders fixed at zero —
// reaches the optimum of the set's own LP, or was cut by a bound that lies
// between that optimum and its cutoff. A fixture with trials cuts some.
func TestTrialsMatchSubsetLPs(t *testing.T) {
	cases := oracleCases(t)
	_, busy := core.RefineSlotBusy()
	cases["capacity-limited"] = busy
	total := 0
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			n, cuts, err := core.TrialsAgainstSubsetLPs(core.NewOptimized(), in)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d trials checked, %d cut", n, cuts)
			if n > 0 && cuts == 0 {
				t.Fatalf("%d trials and none cut", n)
			}
			total += n
		})
	}
	if total < 100 {
		t.Fatalf("%d trials checked in all: fixture too tame", total)
	}
}
