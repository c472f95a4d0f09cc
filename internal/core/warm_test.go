package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"profitlb/internal/lp"
)

// slotSequence perturbs one base input into a deterministic sequence of
// slot inputs: arrivals and prices drift a few percent per slot, the
// topology stays fixed — the cross-slot shape warm starting targets.
func slotSequence(base *Input, slots int) []*Input {
	out := make([]*Input, slots)
	for t := 0; t < slots; t++ {
		in := &Input{Sys: base.Sys, Slot: t}
		in.Arrivals = make([][]float64, len(base.Arrivals))
		for s := range base.Arrivals {
			in.Arrivals[s] = make([]float64, len(base.Arrivals[s]))
			for k := range base.Arrivals[s] {
				in.Arrivals[s][k] = base.Arrivals[s][k] * (1 + 0.03*math.Sin(float64(t)+float64(s+k)))
			}
		}
		in.Prices = make([]float64, len(base.Prices))
		for l := range base.Prices {
			in.Prices[l] = base.Prices[l] * (1 + 0.02*math.Cos(float64(t)+float64(l)))
		}
		out[t] = in
	}
	return out
}

// planChain drives one retained planner down a slot sequence.
func planChain(t *testing.T, p Planner, seq []*Input) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(seq))
	for i, in := range seq {
		plan, err := p.Plan(in)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		plans[i] = plan
	}
	return plans
}

func assertChainsEqual(t *testing.T, label string, want, got []*Plan) {
	t.Helper()
	for i := range want {
		if got[i].Objective != want[i].Objective {
			t.Fatalf("%s: slot %d objective %v != %v", label, i, got[i].Objective, want[i].Objective)
		}
		if !reflect.DeepEqual(got[i].Rate, want[i].Rate) ||
			!reflect.DeepEqual(got[i].Phi, want[i].Phi) ||
			!reflect.DeepEqual(got[i].ServersOn, want[i].ServersOn) {
			t.Fatalf("%s: slot %d plans differ", label, i)
		}
	}
}

// TestWarmChainsReplayIdentical: two warm planners chained over one slot
// sequence commit bit-identical plans. Every solve but the capture solve
// is a pure function of (model, seed), whatever its solve unit did before.
func TestWarmChainsReplayIdentical(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 5)
	planners := map[string]func() Planner{
		"optimized": func() Planner { return NewOptimized() },
		"level-search/greedy": func() Planner {
			ls := NewLevelSearch()
			ls.Strategy = Greedy
			return ls
		},
		"level-search/auto": func() Planner { return NewLevelSearch() },
	}
	for name, mk := range planners {
		t.Run(name, func(t *testing.T) {
			assertChainsEqual(t, "replay", planChain(t, mk(), seq), planChain(t, mk(), seq))
		})
	}
}

// TestWarmChainMatchesColdChain: warm-started chains must agree with
// cold chains on every slot's audited outcome — same feasible plans,
// objectives within solver tolerance — and the warm machinery must
// actually fire after the first slot.
func TestWarmChainMatchesColdChain(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 6)

	warm := NewOptimized()
	warm.Stats = &SearchStats{}
	cold := NewOptimized()
	cold.WarmStart = false

	var warmHits int64
	for i, in := range seq {
		wp, err := warm.Plan(in)
		if err != nil {
			t.Fatalf("warm slot %d: %v", i, err)
		}
		cp, err := cold.Plan(in)
		if err != nil {
			t.Fatalf("cold slot %d: %v", i, err)
		}
		if err := Verify(in, wp, 1e-5); err != nil {
			t.Fatalf("warm slot %d failed verification: %v", i, err)
		}
		if d := math.Abs(wp.Objective - cp.Objective); d > 1e-6*(1+math.Abs(cp.Objective)) {
			t.Fatalf("slot %d: warm objective %v vs cold %v", i, wp.Objective, cp.Objective)
		}
		if i > 0 {
			warmHits += warm.Stats.WarmHits
		}
	}
	if warmHits == 0 {
		t.Fatal("warm chain never warm-started after the first slot")
	}
}

// TestLevelSearchWarmChain runs the same warm-vs-cold audit for the
// discrete comparator planner.
func TestLevelSearchWarmChain(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 5)

	warm := NewLevelSearch()
	warm.Stats = &SearchStats{}
	cold := NewLevelSearch()
	cold.WarmStart = false

	var warmHits int64
	for i, in := range seq {
		wp, err := warm.Plan(in)
		if err != nil {
			t.Fatalf("warm slot %d: %v", i, err)
		}
		cp, err := cold.Plan(in)
		if err != nil {
			t.Fatalf("cold slot %d: %v", i, err)
		}
		if err := Verify(in, wp, 1e-5); err != nil {
			t.Fatalf("warm slot %d failed verification: %v", i, err)
		}
		if d := math.Abs(wp.Objective - cp.Objective); d > 1e-6*(1+math.Abs(cp.Objective)) {
			t.Fatalf("slot %d: warm objective %v vs cold %v", i, wp.Objective, cp.Objective)
		}
		if i > 0 {
			warmHits += warm.Stats.WarmHits
		}
	}
	if warmHits == 0 {
		t.Fatal("level-search warm chain never warm-started after the first slot")
	}
}

// TestPerServerIgnoresWarmStart: the per-server layout is never
// warm-started; its LPs go through the same engine but solve cold even
// though WarmStart defaults on, slot after slot.
func TestPerServerIgnoresWarmStart(t *testing.T) {
	in := &Input{Sys: twoDCSystem(), Arrivals: [][]float64{{200}}, Prices: []float64{0.1, 0.05}}
	o := NewOptimized()
	o.PerServer = true
	o.Stats = &SearchStats{}
	for slot := 0; slot < 2; slot++ {
		mustPlan(t, o, in)
		if st := *o.Stats; st.Solves == 0 || st.WarmHits != 0 || st.WarmFallbacks != 0 || st.WarmPivots != 0 || st.SparseSolves != 0 {
			t.Fatalf("slot %d: per-server must solve cold through the engine, got %+v", slot, st)
		}
	}
}

// TestIterationLimitEscalates: a starved iteration budget must surface
// as a planner error carrying lp.ErrIterationLimit — never as a
// silently degraded plan (the resilient chain distinguishes resource
// exhaustion, which escalates to the next tier, from genuine
// infeasibility, which it handles by shedding).
func TestIterationLimitEscalates(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	for _, warmOn := range []bool{true, false} {
		o := NewOptimized()
		o.WarmStart = warmOn
		o.LPOpts.MaxIterations = 1
		_, err := o.Plan(in)
		if err == nil {
			t.Fatalf("warm=%v: expected an error with MaxIterations=1", warmOn)
		}
		if !errors.Is(err, lp.ErrIterationLimit) {
			t.Fatalf("warm=%v: error %v does not carry lp.ErrIterationLimit", warmOn, err)
		}
	}
}

// TestHorizonPlannerWarm: the rolling-horizon planner warm-starts
// successive windows and still matches the cold PlanHorizon on every
// window of a rolling sequence.
func TestHorizonPlannerWarm(t *testing.T) {
	hp := NewHorizonPlanner()
	for w := 0; w < 4; w++ {
		h := deferScenario(3)
		h.MaxDefer[1] = 1
		for t2 := range h.Arrivals {
			h.Arrivals[t2][0][0] *= 1 + 0.05*math.Sin(float64(w+t2))
			h.Prices[t2][0] *= 1 + 0.04*math.Cos(float64(w+t2))
		}
		warm, err := hp.Plan(h)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		cold, err := PlanHorizon(h, lp.Options{})
		if err != nil {
			t.Fatalf("window %d cold: %v", w, err)
		}
		if err := VerifyHorizon(h, warm, 1e-5); err != nil {
			t.Fatalf("window %d warm plan failed verification: %v", w, err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("window %d: warm objective %v vs cold %v", w, warm.Objective, cold.Objective)
		}
	}
	// A fresh planner with WarmStart off must replay the cold path.
	hp2 := &HorizonPlanner{}
	h := deferScenario(3)
	got, err := hp2.Plan(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanHorizon(h, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != want.Objective {
		t.Fatalf("cold HorizonPlanner objective %v != PlanHorizon %v", got.Objective, want.Objective)
	}
}
