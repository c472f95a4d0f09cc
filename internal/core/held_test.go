package core

import (
	"fmt"
	"math"
	"testing"
)

// dropScratch is the held lists' test seam: everything a planner refills
// call after call instead of allocating — its planScratch and, for a
// horizon planner, its window's per-block lists and read-out — is dropped,
// as if the planner had never planned. The held LPs and solver state stay.
func (e *EngineOptions) dropScratch() {
	e.scratch = planScratch{}
	w := &e.warm.hot.w
	w.lists, w.rates, w.read = nil, rateRows{}, readout{}
}

// heldDay is a 24-slot day of the 2×3×2 synthetic fleet whose prices push
// commodities out of admission and back: center 0's price is ×2000 on
// slots 1 mod 3 (every commodity there priced out) and ×500 on slots 2 mod
// 3 (the loose level only). On odd slots the day hands over another System
// in which center 1 serves at a sixteenth of its rate, so the zero-load
// reservations of its tight levels overflow the server and capReservations
// evicts there.
func heldDay() []*Input {
	base := synthInput(2, 3, 2)
	slow := base.Sys.Clone()
	for k := range slow.Centers[1].ServiceRate {
		slow.Centers[1].ServiceRate[k] /= 16
	}
	day := make([]*Input, 24)
	for t := range day {
		in := chainInput(base, t, 1)
		switch t % 3 {
		case 1:
			in.Prices[0] *= 2000
		case 2:
			in.Prices[0] *= 500
		}
		if t%2 == 1 {
			in.Sys = slow
		}
		day[t] = in
	}
	return day
}

// samePlanBits reports where two plans differ in any bit, "" when nowhere.
func samePlanBits(a, b *Plan) string {
	if !a.sameShape(b) {
		return "shape"
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	}
	for k := range a.Rate {
		for q := range a.Rate[k] {
			for s := range a.Rate[k][q] {
				for l, v := range a.Rate[k][q][s] {
					if math.Float64bits(v) != math.Float64bits(b.Rate[k][q][s][l]) {
						return fmt.Sprintf("rate (%d, %d, %d, %d) %v vs %v", k, q, s, l, v, b.Rate[k][q][s][l])
					}
				}
			}
		}
	}
	for l := range a.Phi {
		if a.ServersOn[l] != b.ServersOn[l] {
			return fmt.Sprintf("center %d powers %d vs %d servers", l, a.ServersOn[l], b.ServersOn[l])
		}
		for k := range a.Phi[l] {
			for q, v := range a.Phi[l][k] {
				if math.Float64bits(v) != math.Float64bits(b.Phi[l][k][q]) {
					return fmt.Sprintf("share (%d, %d, %d) %v vs %v", l, k, q, v, b.Phi[l][k][q])
				}
			}
		}
	}
	return ""
}

// TestHeldListsAreInvisible: a planner that refills its held lists plans
// every slot of heldDay bit for bit as the same planner with them dropped
// before each call, and a plan it returned is not touched by the next
// call. Optimized runs with refine on and off, and again under completion
// floors; LevelSearch exhaustively and by branch-and-bound; the horizon
// planner over a 3-slot window sliding along the day, one class deferrable.
func TestHeldListsAreInvisible(t *testing.T) {
	day := heldDay()
	evicted, priced := false, false
	for _, in := range day {
		full := admissibleCommodities(in, nil)
		evicted = evicted || len(capReservations(in, full)) < len(full)
		priced = priced || len(full) < len(admissibleCommodities(day[0], nil))
	}
	if !evicted || !priced {
		t.Fatalf("fixture too tame: evictions %v, commodities priced out %v", evicted, priced)
	}
	optimized := func(set func(*Optimized)) func() (Planner, *EngineOptions) {
		return func() (Planner, *EngineOptions) {
			o := NewOptimized()
			set(o)
			return o, &o.EngineOptions
		}
	}
	levelSearch := func(s Strategy) func() (Planner, *EngineOptions) {
		return func() (Planner, *EngineOptions) {
			ls := NewLevelSearch()
			ls.Strategy = s
			return ls, &ls.EngineOptions
		}
	}
	planners := []struct {
		name string
		make func() (Planner, *EngineOptions)
	}{
		{"optimized", optimized(func(*Optimized) {})},
		{"optimized/refine-off", optimized(func(o *Optimized) { o.Refine = false })},
		{"optimized/floors", optimized(func(o *Optimized) { o.MinCompletion = []float64{0.3, 0.2} })},
		{"level-search/exhaustive", levelSearch(Auto)},
		{"level-search/branch-and-bound", levelSearch(BranchBound)},
	}
	for _, pc := range planners {
		held, _ := pc.make()
		dropped, scratch := pc.make()
		var prev, prevCopy *Plan
		for t0, in := range day {
			got, err := held.Plan(in)
			if err != nil {
				t.Fatalf("%s slot %d: %v", pc.name, t0, err)
			}
			scratch.dropScratch()
			want, err := dropped.Plan(in)
			if err != nil {
				t.Fatalf("%s slot %d, lists dropped: %v", pc.name, t0, err)
			}
			if diff := samePlanBits(got, want); diff != "" {
				t.Fatalf("%s slot %d: held lists and dropped ones plan apart: %s", pc.name, t0, diff)
			}
			if prev != nil {
				if diff := samePlanBits(prev, prevCopy); diff != "" {
					t.Fatalf("%s: slot %d's Plan changed slot %d's plan: %s", pc.name, t0, t0-1, diff)
				}
			}
			prev, prevCopy = got, got.Clone()
		}
	}

	held, dropped := NewHorizonPlanner(), NewHorizonPlanner()
	var prev, prevCopy *HorizonPlan
	for t0 := 0; t0+3 <= len(day); t0++ {
		h := &HorizonInput{Sys: day[t0].Sys, MaxDefer: []int{1, 0}}
		for _, in := range day[t0 : t0+3] {
			h.Arrivals, h.Prices = append(h.Arrivals, in.Arrivals), append(h.Prices, in.Prices)
		}
		got, err := held.Plan(h)
		if err != nil {
			t.Fatalf("horizon window %d: %v", t0, err)
		}
		dropped.dropScratch()
		want, err := dropped.Plan(h)
		if err != nil {
			t.Fatalf("horizon window %d, lists dropped: %v", t0, err)
		}
		if diff := sameHorizonBits(got, want); diff != "" {
			t.Fatalf("horizon window %d: held lists and dropped ones plan apart: %s", t0, diff)
		}
		if prev != nil {
			if diff := sameHorizonBits(prev, prevCopy); diff != "" {
				t.Fatalf("horizon: window %d's Plan changed window %d's plan: %s", t0, t0-1, diff)
			}
		}
		prev, prevCopy = got, cloneHorizon(got)
	}
}

func sameHorizonBits(a, b *HorizonPlan) string {
	if len(a.Slots) != len(b.Slots) || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("%d slots, objective %v vs %d, %v", len(a.Slots), a.Objective, len(b.Slots), b.Objective)
	}
	for k, v := range a.DeferredFraction {
		if math.Float64bits(v) != math.Float64bits(b.DeferredFraction[k]) {
			return fmt.Sprintf("class %d deferred fraction %v vs %v", k, v, b.DeferredFraction[k])
		}
	}
	for t, p := range a.Slots {
		if diff := samePlanBits(p, b.Slots[t]); diff != "" {
			return fmt.Sprintf("slot %d: %s", t, diff)
		}
	}
	return ""
}

func cloneHorizon(hp *HorizonPlan) *HorizonPlan {
	out := &HorizonPlan{Objective: hp.Objective, DeferredFraction: append([]float64(nil), hp.DeferredFraction...)}
	for _, p := range hp.Slots {
		out.Slots = append(out.Slots, p.Clone())
	}
	return out
}
