package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/lp"
	"profitlb/internal/tuf"
)

// sprintfName is the spelling buildDispatchLP used before names were
// appended and memoised: the oracle every path below must match.
func sprintfName(kind, k, q, s, l, g int) string {
	var base string
	switch kind {
	case phiName:
		base = fmt.Sprintf("phi_k%d_q%d_l%d", k, q, l)
	case lamName:
		base = fmt.Sprintf("lam_k%d_q%d_s%d_l%d", k, q, s, l)
	case capName:
		base = fmt.Sprintf("cap_k%d_q%d_l%d", k, q, l)
	case arrName:
		base = fmt.Sprintf("arr_k%d_s%d", k, s)
	case floorName:
		base = fmt.Sprintf("floor_k%d", k)
	case shareName:
		base = fmt.Sprintf("share_l%d", l)
	}
	if g >= 0 {
		base += fmt.Sprintf("_i%d", g)
	}
	return base
}

// dimsSystem is a topology of the given dimensions whose every class has
// the given number of TUF levels; only the dimensions matter to a name.
func dimsSystem(K, levels, S, L int) *datacenter.System {
	sys := &datacenter.System{}
	for k := 0; k < K; k++ {
		lv := make([]tuf.Level, levels)
		for q := range lv {
			lv[q] = tuf.Level{Utility: float64(20 - q), Deadline: 0.1 * float64(q+1)}
		}
		sys.Classes = append(sys.Classes, datacenter.RequestClass{Name: "k", TUF: tuf.MustNew(lv)})
	}
	for s := 0; s < S; s++ {
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: "fe", DistanceMiles: make([]float64, L)})
	}
	for l := 0; l < L; l++ {
		sys.Centers = append(sys.Centers, datacenter.DataCenter{Name: "dc", Servers: 2, Capacity: 1,
			ServiceRate: make([]float64, K), EnergyPerRequest: make([]float64, K)})
	}
	return sys
}

// usedIndices masks the indices a kind does not carry, the way
// buildDispatchLP calls name.
func usedIndices(kind, k, q, s, l int) (int, int, int, int) {
	switch kind {
	case phiName, capName:
		s = -1
	case arrName:
		q, l = -1, -1
	case floorName:
		q, s, l = -1, -1, -1
	case shareName:
		k, q, s = -1, -1, -1
	}
	return k, q, s, l
}

// TestDispatchNamesMatchSprintf: over random dimensions and indices —
// q = NumLevels, the branch-and-bound sentinel, included — the table
// (first use and memoised), the table-less miss path and the per-server
// spelling all equal the old fmt.Sprintf names.
func TestDispatchNamesMatchSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		K, Q, S, L := 1+rng.Intn(30), 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(120)
		var opts EngineOptions
		table := opts.namesFor(dimsSystem(K, Q, S, L))
		for draw := 0; draw < 400; draw++ {
			kind := rng.Intn(nameKinds)
			k, q, s, l := usedIndices(kind, rng.Intn(K), rng.Intn(Q+1), rng.Intn(S), rng.Intn(L))
			if draw%7 == 0 && q >= 0 {
				q = Q
			}
			want := sprintfName(kind, k, q, s, l, -1)
			for pass, got := range []string{
				table.name(kind, k, q, s, l, -1),
				table.name(kind, k, q, s, l, -1),
				(*dispatchNames)(nil).name(kind, k, q, s, l, -1),
			} {
				if got != want {
					t.Fatalf("dims %dx%dx%dx%d pass %d: got %q, want %q", K, Q, S, L, pass, got, want)
				}
			}
			g := rng.Intn(40)
			if got, want := table.name(kind, k, q, s, l, g), sprintfName(kind, k, q, s, l, g); got != want {
				t.Fatalf("per-server: got %q, want %q", got, want)
			}
		}
	}
}

// namesOf lists a model's variable names, then its row names.
func namesOf(m *lp.Model) []string {
	var out []string
	for v := 0; v < m.NumVariables(); v++ {
		out = append(out, m.VariableName(v))
	}
	for c := 0; c < m.NumConstraints(); c++ {
		out = append(out, m.RowName(c))
	}
	return out
}

// TestNameTableFollowsTheSystem drives one planner's table across systems
// of different K/Q/S/L — grown, shrunk and grown again: each LP built
// through the table must carry the names of the table-less build, which
// a table strided for another system would not give.
func TestNameTableFollowsTheSystem(t *testing.T) {
	inputs := []*Input{
		{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}},
		synthInput(7, 9, 3),
		{Sys: oneDCSystem(), Arrivals: [][]float64{{50}}, Prices: []float64{0.1}},
		synthInput(9, 12, 2),
	}
	o := NewOptimized()
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			comms := capReservations(in, admissibleCommodities(in, nil))
			eng := o.open(in, o.Name(), false, false)
			got := namesOf(buildDispatchLP(in, comms, nil, false, eng.names).model)
			eng.close()
			if want := namesOf(buildDispatchLP(in, comms, nil, false, nil).model); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d input %d: LP built through the planner's name table differs from the stateless build", round, i)
			}
			if _, err := o.Plan(in); err != nil {
				t.Fatalf("round %d input %d: %v", round, i, err)
			}
		}
	}
}

// TestNameTableConcurrentFill: the table is shared by calls claim keeps
// apart, so racing first uses must be safe (run under -race) and agree.
func TestNameTableConcurrentFill(t *testing.T) {
	const K, Q, S, L = 6, 2, 3, 20
	var opts EngineOptions
	sys := dimsSystem(K, Q, S, L)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			table := opts.namesFor(sys)
			for draw := 0; draw < 4000; draw++ {
				kind := rng.Intn(nameKinds)
				k, q, s, l := usedIndices(kind, rng.Intn(K), rng.Intn(Q+1), rng.Intn(S), rng.Intn(L))
				if got, want := table.name(kind, k, q, s, l, -1), sprintfName(kind, k, q, s, l, -1); got != want {
					t.Errorf("got %q, want %q", got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestNameTableFillKeepsThePlan plans a refine search twice over on one
// planner (cold table, filled table); both plans must equal a fresh
// planner's.
func TestNameTableFillKeepsThePlan(t *testing.T) {
	in := synthInput(4, 5, 2)
	fresh := mustPlan(t, NewOptimized(), in)
	o := NewOptimized()
	for pass := 0; pass < 2; pass++ {
		if got := mustPlan(t, o, in); got.Objective != fresh.Objective {
			t.Fatalf("pass %d: objective %v, a fresh planner's %v", pass, got.Objective, fresh.Objective)
		}
	}
}

// TestHorizonNamesSpelledAsBefore: the horizon builder spells through the
// same appender; its variables (found through the builder's own index
// maps) and cap rows keep the fmt.Sprintf names, and every other row
// has the shape of its kind.
func TestHorizonNamesSpelledAsBefore(t *testing.T) {
	for _, h := range []*HorizonInput{deferScenario(6), backlogScenario(5)} {
		d := buildHorizonLP(h)
		check := func(v int, want string) {
			t.Helper()
			if got := d.model.VariableName(v); got != want {
				t.Fatalf("variable %d is %q, want %q", v, got, want)
			}
		}
		for v, i := range d.xIdx {
			c := d.comms[v.ts][v.ci]
			check(i, fmt.Sprintf("x_t%d_k%d_q%d_s%d_l%d_d%d", v.ts, c.k, c.q, v.s, c.l, v.d))
		}
		for v, i := range d.bIdx {
			c := d.comms[v.ts][v.ci]
			check(i, fmt.Sprintf("b_t%d_k%d_q%d_s%d_l%d_r%d", v.ts, c.k, c.q, v.s, c.l, v.r))
		}
		row := 0
		for ts, fs := range d.fVar {
			for ci, i := range fs {
				c := d.comms[ts][ci]
				check(i, fmt.Sprintf("phi_t%d_k%d_q%d_l%d", ts, c.k, c.q, c.l))
				if got, want := d.model.RowName(row), fmt.Sprintf("cap_t%d_k%d_q%d_l%d", ts, c.k, c.q, c.l); got != want {
					t.Fatalf("row %d is %q, want %q", row, got, want)
				}
				row++
			}
		}
		rest := regexp.MustCompile(`^(bud_s\d+_k\d+_r\d+|arr_t\d+_s\d+_k\d+|share_t\d+_l\d+)$`)
		for ; row < d.model.NumConstraints(); row++ {
			if name := d.model.RowName(row); !rest.MatchString(name) {
				t.Fatalf("row %d has the unexpected name %q", row, name)
			}
		}
	}
}
