package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
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

// TestHorizonNamesSpelled pins how a window model is spelled: block t's
// columns and rows carry the slot LP's own names behind "t<t>_", the
// coupling's are fwd/back columns and out/bud rows over (k, s), and no two
// columns and no two rows of a model share a name — a basis names its
// members, so a repeat would cross two of them.
func TestHorizonNamesSpelled(t *testing.T) {
	deferring := deferScenario(6)
	deferring.MaxDefer = []int{0, 3}
	coupling := regexp.MustCompile(`^(fwd_k\d+_s\d+_t\d+_d\d+|back_k\d+_s\d+_r\d+_t\d+|out_k\d+_s\d+_t\d+|bud_k\d+_s\d+_r\d+)$`)
	for _, h := range []*HorizonInput{deferring, backlogScenario(5)} {
		var w windowLP
		w.build(h, nil)
		m := &w.model
		// Every handle of every block leads to the slot LP's name for it.
		ofBlocks := map[string]bool{}
		is := func(got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("a block spells %q where the slot LP behind its prefix has %q", got, want)
			}
			ofBlocks[got] = true
		}
		for slot := range w.blocks {
			d, p := &w.blocks[slot], fmt.Sprintf("t%d_", slot)
			for ci, c := range d.comms {
				is(m.VariableName(d.fVar[ci][0]), p+dispatchName(phiName, c.k, c.q, -1, c.l, -1))
				for s, x := range d.xVar[ci] {
					is(m.VariableName(x), p+dispatchName(lamName, c.k, c.q, s, c.l, -1))
				}
				ofBlocks[p+dispatchName(capName, c.k, c.q, -1, c.l, -1)] = true
			}
			for k, rows := range d.arrRow {
				for s, row := range rows {
					if row >= 0 {
						is(m.RowName(row), p+dispatchName(arrName, k, -1, s, -1, -1))
					}
				}
			}
			for l, row := range d.shareRow {
				if row >= 0 {
					is(m.RowName(row), p+dispatchName(shareName, -1, -1, -1, l, -1))
				}
			}
		}
		cols, rows := map[string]bool{}, map[string]bool{}
		for v := 0; v < m.NumVariables(); v++ {
			cols[m.VariableName(v)] = true
		}
		for c := 0; c < m.NumConstraints(); c++ {
			rows[m.RowName(c)] = true
		}
		if len(cols) != m.NumVariables() || len(rows) != m.NumConstraints() {
			t.Fatalf("%d columns share %d names, %d rows %d", m.NumVariables(), len(cols), m.NumConstraints(), len(rows))
		}
		for _, names := range []map[string]bool{cols, rows} {
			for name := range names {
				if !ofBlocks[name] && !coupling.MatchString(name) {
					t.Fatalf("unexpected name %q", name)
				}
			}
		}
		for _, name := range []string{"t0_lam_k1_q0_s0_l0", "t2_phi_k1_q0_l0", "fwd_k1_s0_t0_d2", "back_k1_s0_r1_t0"} {
			if !cols[name] {
				t.Fatalf("no column %q", name)
			}
		}
		for _, name := range []string{"t1_cap_k0_q0_l0", "t0_arr_k1_s0", "t3_share_l0", "out_k1_s0_t0", "bud_k1_s0_r0"} {
			if !rows[name] {
				t.Fatalf("no row %q", name)
			}
		}
	}
}
