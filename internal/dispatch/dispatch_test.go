package dispatch

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/tuf"
)

// testSystem is a small 2-class, 2-front-end, 2-center topology sized so
// the optimized planner serves everything comfortably.
func testSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}}),
				TransferCostPerMile: 1e-6},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{
				{Utility: 0.05, Deadline: 0.05}, {Utility: 0.02, Deadline: 0.25}}),
				TransferCostPerMile: 2e-6},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "east", DistanceMiles: []float64{300, 2400}},
			{Name: "west", DistanceMiles: []float64{2500, 200}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "tx", Servers: 8, Capacity: 1,
				ServiceRate: []float64{20000, 3000}, EnergyPerRequest: []float64{0.0003, 0.004}},
			{Name: "ca", Servers: 8, Capacity: 1,
				ServiceRate: []float64{18000, 3500}, EnergyPerRequest: []float64{0.0003, 0.0035}},
		},
	}
}

func testInput(sys *datacenter.System) *core.Input {
	return &core.Input{
		Sys:      sys,
		Arrivals: [][]float64{{30000, 2000}, {24000, 1500}},
		Prices:   []float64{0.05, 0.08},
		Slot:     7,
	}
}

// testTable plans the fixture with the optimized planner and compiles it.
func testTable(t *testing.T, cfg Config) (*core.Input, *core.Plan, *Table) {
	t.Helper()
	in := testInput(testSystem())
	plan, err := core.NewOptimized().Plan(in)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return in, plan, tab
}

func TestConfigValidate(t *testing.T) {
	sys := testSystem()
	cases := []struct {
		name string
		cfg  *Config
		want string // substring of the error, "" for ok
	}{
		{"nil config", nil, ""},
		{"defaults", &Config{SlotSeconds: 60}, ""},
		{"negative burst", &Config{Burst: -0.1, SlotSeconds: 60}, "negative burst"},
		{"negative minBurst", &Config{MinBurst: -1, SlotSeconds: 60}, "negative minBurst"},
		{"zero slot length", &Config{}, "positive length"},
		{"negative slot length", &Config{SlotSeconds: -5}, "positive length"},
		{"negative drain", &Config{SlotSeconds: 60, DrainSeconds: -1}, "negative drainSeconds"},
		{"unknown front-end", &Config{SlotSeconds: 60, FrontEnds: []string{"mars"}}, `unknown front-end "mars"`},
		{"duplicate front-end", &Config{SlotSeconds: 60, FrontEnds: []string{"east", "east"}}, "listed twice"},
		{"known front-ends", &Config{SlotSeconds: 60, FrontEnds: []string{"east", "west"}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(sys)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Burst != DefaultBurst || c.MinBurst != DefaultMinBurst ||
		c.SlotSeconds != DefaultSlotSeconds || c.DrainSeconds != DefaultDrainSeconds {
		t.Fatalf("WithDefaults() = %+v", c)
	}
	set := Config{Burst: 0.2, MinBurst: 1, SlotSeconds: 5, DrainSeconds: 3}.WithDefaults()
	if set.Burst != 0.2 || set.MinBurst != 1 || set.SlotSeconds != 5 || set.DrainSeconds != 3 {
		t.Fatalf("WithDefaults() clobbered explicit values: %+v", set)
	}
}

// TestCompile checks that the table mirrors the plan: one lane per
// positive (k, q, s, l) rate, stream budgets summing to the plan's
// dispatch totals, and frozen economics consistent with the topology.
func TestCompile(t *testing.T) {
	in, plan, tab := testTable(t, Config{Seed: 42, SlotSeconds: 60})
	sys := in.Sys
	T := sys.Slot()
	if tab.Slot != in.Slot || tab.SlotLen != T || tab.Seed != 42 {
		t.Fatalf("table header: %+v", tab)
	}
	if tab.Objective != plan.Objective {
		t.Fatalf("objective %g, plan %g", tab.Objective, plan.Objective)
	}
	var wantLanes int
	for k := range plan.Rate {
		for q := range plan.Rate[k] {
			for s := range plan.Rate[k][q] {
				var streamRate float64
				for l, r := range plan.Rate[k][q][s] {
					if r > rateEps {
						wantLanes++
						streamRate += r
						_ = l
					}
				}
				_ = streamRate
			}
		}
	}
	if len(tab.Lanes) != wantLanes {
		t.Fatalf("%d lanes, want %d", len(tab.Lanes), wantLanes)
	}
	for k := 0; k < sys.K(); k++ {
		for s := 0; s < sys.S(); s++ {
			planned, arrival := tab.Planned(k, s)
			var want float64
			for q := range plan.Rate[k] {
				for _, r := range plan.Rate[k][q][s] {
					if r > rateEps {
						want += r
					}
				}
			}
			if math.Abs(planned-want) > 1e-9 {
				t.Errorf("stream (%d,%d) planned %g, want %g", k, s, planned, want)
			}
			if arrival != in.Arrivals[s][k] {
				t.Errorf("stream (%d,%d) arrival %g, want %g", k, s, arrival, in.Arrivals[s][k])
			}
		}
	}
	for i, ln := range tab.Lanes {
		if ln.Rate <= rateEps {
			t.Errorf("lane %d has non-positive rate %g", i, ln.Rate)
		}
		if ln.Burst < DefaultMinBurst {
			t.Errorf("lane %d burst %g below floor", i, ln.Burst)
		}
		if ln.Utility <= 0 {
			t.Errorf("lane %d utility %g; the plan should not buy worthless lanes", i, ln.Utility)
		}
		if want := sys.TransferCost(ln.K, ln.S, ln.L); ln.UnitTransfer != want {
			t.Errorf("lane %d transfer %g, want %g", i, ln.UnitTransfer, want)
		}
		if want := sys.EnergyCost(ln.K, ln.L, in.Prices[ln.L]); ln.UnitEnergy != want {
			t.Errorf("lane %d energy %g, want %g", i, ln.UnitEnergy, want)
		}
	}
}

func TestCompileRejectsShapeMismatch(t *testing.T) {
	in := testInput(testSystem())
	plan, err := core.NewOptimized().Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	bad := *plan
	bad.Rate = bad.Rate[:1] // drop a type
	if _, err := Compile(in, &bad, Config{}); err == nil {
		t.Fatal("Compile accepted a plan with a missing type")
	}
	nan := core.NewPlan(in.Sys)
	nan.Rate[0][0][0][0] = math.NaN()
	if _, err := Compile(in, nan, Config{}); err == nil {
		t.Fatal("Compile accepted a NaN rate")
	}
}

// TestAliasDistribution draws a long sequence from one stream's alias
// table and checks the empirical lane frequencies against the plan's
// rates.
func TestAliasDistribution(t *testing.T) {
	_, _, tab := testTable(t, Config{Seed: 9, SlotSeconds: 60})
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			e := &tab.entries[k][s]
			if len(e.lanes) == 0 {
				continue
			}
			const n = 200000
			counts := map[int32]int{}
			for seq := uint64(0); seq < n; seq++ {
				lane := e.draw(seq)
				if lane < 0 || int(lane) >= len(tab.Lanes) {
					t.Fatalf("stream (%d,%d) drew out-of-range lane %d", k, s, lane)
				}
				counts[lane]++
			}
			for _, li := range e.lanes {
				want := tab.Lanes[li].Rate / e.planned
				got := float64(counts[li]) / n
				if math.Abs(got-want) > 0.01 {
					t.Errorf("stream (%d,%d) lane %d frequency %.4f, want %.4f", k, s, li, got, want)
				}
			}
		}
	}
}

// replayStream drives one (k, s) stream through the gateway with evenly
// spaced arrivals and returns the outcome sequence.
func replayStream(gw *Gateway, k, s, n int, T float64) []Outcome {
	out := make([]Outcome, n)
	for i := 0; i < n; i++ {
		at := T * float64(i) / float64(n)
		out[i] = gw.Handle(k, s, at).Outcome
	}
	return out
}

// TestDeterminism replays the same arrivals through two independently
// compiled gateways — once sequentially, once with one goroutine per
// stream — and requires identical per-stream routing and admit/shed
// sequences. Run under -race this also proves the hot path is
// deterministic per stream in the presence of concurrency.
func TestDeterminism(t *testing.T) {
	const n = 5000
	run := func(parallel bool) map[[2]int][]Outcome {
		_, _, tab := testTable(t, Config{Seed: 1234, SlotSeconds: 60})
		gw := NewGateway(testSystem(), Config{Seed: 1234, SlotSeconds: 60}, nil)
		gw.Install(tab, 0, 0)
		T := tab.SlotLen
		res := make(map[[2]int][]Outcome)
		if !parallel {
			for k := 0; k < tab.K(); k++ {
				for s := 0; s < tab.S(); s++ {
					res[[2]int{k, s}] = replayStream(gw, k, s, n, T)
				}
			}
			return res
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for k := 0; k < tab.K(); k++ {
			for s := 0; s < tab.S(); s++ {
				wg.Add(1)
				go func(k, s int) {
					defer wg.Done()
					seq := replayStream(gw, k, s, n, T)
					mu.Lock()
					res[[2]int{k, s}] = seq
					mu.Unlock()
				}(k, s)
			}
		}
		wg.Wait()
		return res
	}
	base := run(false)
	again := run(false)
	conc := run(true)
	for key, want := range base {
		for name, got := range map[string][]Outcome{"sequential rerun": again[key], "concurrent run": conc[key]} {
			if len(got) != len(want) {
				t.Fatalf("stream %v %s: %d outcomes, want %d", key, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stream %v %s diverges at request %d: %v vs %v", key, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDeterministicRouting checks the stronger property behind the
// determinism test: request i of a stream always draws the same lane.
func TestDeterministicRouting(t *testing.T) {
	_, _, tab := testTable(t, Config{Seed: 77, SlotSeconds: 60})
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			e := &tab.entries[k][s]
			for seq := uint64(0); seq < 1000; seq++ {
				if a, b := e.draw(seq), e.draw(seq); a != b {
					t.Fatalf("stream (%d,%d) seq %d drew %d then %d", k, s, seq, a, b)
				}
			}
		}
	}
}

// TestBudgetEnforcement floods one stream at a single instant: the
// bucket admits exactly its burst and sheds the rest, then refills as
// virtual time advances.
func TestBudgetEnforcement(t *testing.T) {
	_, _, tab := testTable(t, Config{Seed: 5, SlotSeconds: 60})
	gw := NewGateway(testSystem(), Config{Seed: 5, SlotSeconds: 60}, nil)
	gw.Install(tab, 0, 0)
	// Flood k=0, s=0 at t=0. Buckets start full, so the admitted count
	// must equal the total burst across the stream's lanes (±1 per lane
	// for fractional token boundaries).
	var burst float64
	for _, ln := range tab.Lanes {
		if ln.K == 0 && ln.S == 0 {
			burst += ln.Burst
		}
	}
	if burst == 0 {
		t.Skip("stream (0,0) has no lanes in this plan")
	}
	total := int(burst) + 2000
	var admitted, shed int
	for i := 0; i < total; i++ {
		switch gw.Handle(0, 0, 0).Outcome {
		case Admitted:
			admitted++
		case ShedBudget:
			shed++
		default:
			t.Fatalf("unexpected outcome at request %d", i)
		}
	}
	if float64(admitted) > burst+2 || float64(admitted) < burst-2 {
		t.Fatalf("admitted %d at t=0, want ≈ burst %g", admitted, burst)
	}
	if shed == 0 {
		t.Fatal("no budget shed despite flooding")
	}
	// Advance half a slot: buckets refill at λ/2·T ≫ burst, so the next
	// request must be admitted again.
	if got := gw.Handle(0, 0, tab.SlotLen/2).Outcome; got != Admitted {
		t.Fatalf("after refill: %v, want admitted", got)
	}
}

// TestShedTable checks the emergency table: the gateway stays up and
// sheds every request as unplanned.
func TestShedTable(t *testing.T) {
	sys := testSystem()
	cfg := Config{SlotSeconds: 60}
	gw := NewGateway(sys, cfg, nil)
	gw.Install(ShedTable(sys, 3, cfg), 0, 0)
	for i := 0; i < 100; i++ {
		if got := gw.Handle(i%sys.K(), i%sys.S(), float64(i)).Outcome; got != ShedUnplanned {
			t.Fatalf("request %d: %v, want shed-unplanned", i, got)
		}
	}
	if got := gw.Handle(99, 0, 0).Outcome; got != Invalid {
		t.Fatalf("out-of-range type: %v, want invalid", got)
	}
	st := gw.Stats(0)
	if st.Tier != "shed" || !st.Degraded {
		t.Fatalf("stats: tier %q degraded %v", st.Tier, st.Degraded)
	}
	if st.ShedUnplanned != 100 {
		t.Fatalf("shed %d, want 100", st.ShedUnplanned)
	}
}

// TestHandleWithoutTable: a gateway with no installed table answers
// Invalid rather than panicking.
func TestHandleWithoutTable(t *testing.T) {
	gw := NewGateway(testSystem(), Config{SlotSeconds: 60}, nil)
	if got := gw.Handle(0, 0, 0).Outcome; got != Invalid {
		t.Fatalf("no table: %v, want invalid", got)
	}
	if tab := gw.Table(); tab != nil {
		t.Fatalf("Table() = %v, want nil", tab)
	}
}

// --- driver fixtures ---

type stubSource struct {
	in  *core.Input
	err error
}

func (s *stubSource) PlannerInput(abs int) (*core.Input, error) {
	if s.err != nil {
		return nil, s.err
	}
	in := *s.in
	in.Slot = abs
	return &in, nil
}

type stubPlanner struct {
	planner core.Planner
	err     error
	panics  bool
	tier    string
}

func (p *stubPlanner) Name() string { return "stub" }
func (p *stubPlanner) Plan(in *core.Input) (*core.Plan, error) {
	if p.panics {
		panic("solver exploded")
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.planner.Plan(in)
}

// FallbackState mimics the resilient chain's degradation reporting.
func (p *stubPlanner) FallbackState() (int, string, bool) {
	if p.tier == "" {
		return 0, "", false
	}
	return 1, p.tier, true
}

// install plans slot abs and installs the table in the driver's gateway
// at virtual time now — what a fleet of one does with the publication.
func install(d *Driver, abs int, now float64) (*Table, error) {
	t, err := d.PlanTable(abs)
	if err == nil {
		d.Gateway.Install(t, now, 0)
	}
	return t, err
}

func TestDriverHappyPath(t *testing.T) {
	in := testInput(testSystem())
	gw := NewGateway(in.Sys, Config{SlotSeconds: 60}, nil)
	d := &Driver{
		Gateway: gw,
		Planner: &stubPlanner{planner: core.NewOptimized()},
		Source:  &stubSource{in: in},
	}
	tab, err := install(d, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.LastErr != nil {
		t.Fatalf("LastErr = %v", d.LastErr)
	}
	if tab.Degraded || tab.Slot != 7 || len(tab.Lanes) == 0 {
		t.Fatalf("table: %+v", tab)
	}
	if got := gw.Handle(0, 0, 0).Outcome; got != Admitted {
		t.Fatalf("first request: %v, want admitted", got)
	}
}

func TestDriverDegradesToShed(t *testing.T) {
	in := testInput(testSystem())
	cases := []struct {
		name string
		d    *Driver
	}{
		{"planner error", &Driver{
			Planner: &stubPlanner{err: errors.New("no solution")},
			Source:  &stubSource{in: in},
		}},
		{"planner panic", &Driver{
			Planner: &stubPlanner{panics: true},
			Source:  &stubSource{in: in},
		}},
		{"source error", &Driver{
			Planner: &stubPlanner{planner: core.NewOptimized()},
			Source:  &stubSource{err: errors.New("feed dark")},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gw := NewGateway(in.Sys, Config{SlotSeconds: 60}, nil)
			tc.d.Gateway = gw
			tab, err := install(tc.d, 3, 0)
			if err != nil {
				t.Fatalf("PlanTable returned a wiring error: %v", err)
			}
			if tc.d.LastErr == nil {
				t.Fatal("LastErr is nil for a degraded slot")
			}
			if !tab.Degraded || tab.Tier != "shed" {
				t.Fatalf("table: degraded %v tier %q", tab.Degraded, tab.Tier)
			}
			// The gateway keeps answering: everything sheds, nothing errors.
			if got := gw.Handle(0, 0, 0).Outcome; got != ShedUnplanned {
				t.Fatalf("degraded gateway: %v, want shed-unplanned", got)
			}
		})
	}
}

func TestDriverMarksFallbackTier(t *testing.T) {
	in := testInput(testSystem())
	gw := NewGateway(in.Sys, Config{SlotSeconds: 60}, nil)
	d := &Driver{
		Gateway: gw,
		Planner: &stubPlanner{planner: core.NewOptimized(), tier: "balanced"},
		Source:  &stubSource{in: in},
	}
	tab, err := install(d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Degraded || tab.Tier != "balanced" {
		t.Fatalf("fallback table: degraded %v tier %q", tab.Degraded, tab.Tier)
	}
}

func TestDriverMissingWiring(t *testing.T) {
	if _, err := (&Driver{}).PlanTable(0); err == nil {
		t.Fatal("PlanTable with no wiring succeeded")
	}
}

// TestHotSwap installs a second table mid-flight and checks the slot
// tallies reset while lifetime totals carry over.
func TestHotSwap(t *testing.T) {
	_, _, tab := testTable(t, Config{Seed: 2, SlotSeconds: 60})
	gw := NewGateway(testSystem(), Config{Seed: 2, SlotSeconds: 60}, nil)
	gw.Install(tab, 0, 0)
	for i := 0; i < 50; i++ {
		gw.Handle(0, 0, 0.01*float64(i))
	}
	_, _, tab2 := testTable(t, Config{Seed: 3, SlotSeconds: 60})
	gw.Install(tab2, tab.SlotLen, 0)
	st := gw.Stats(tab.SlotLen)
	if st.Offered != 0 {
		t.Fatalf("slot tally survived the swap: %d", st.Offered)
	}
	if st.TotalRequests != 50 {
		t.Fatalf("lifetime total %d, want 50", st.TotalRequests)
	}
	if st.Swaps != 2 {
		t.Fatalf("swaps %d, want 2", st.Swaps)
	}
}

func TestOutcomeString(t *testing.T) {
	want := map[Outcome]string{
		Admitted: "admitted", ShedUnplanned: "shed-unplanned",
		ShedBudget: "shed-budget", Invalid: "invalid",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

// sameProduct fails unless two tables decide alike: equal wire forms
// (header, lanes with their bursts, arrival budgets) and, per stream,
// equal planned rates, seeds and routing draws.
func sameProduct(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if g, w := got.Wire(), want.Wire(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: wire form\n got  %+v\n want %+v", what, g, w)
	}
	for k := 0; k < want.K(); k++ {
		for s := 0; s < want.S(); s++ {
			g, w := &got.entries[k][s], &want.entries[k][s]
			if g.planned != w.planned || g.seed != w.seed {
				t.Fatalf("%s: stream (%d,%d) planned %g seed %d, want %g and %d", what, k, s, g.planned, g.seed, w.planned, w.seed)
			}
			for seq := uint64(0); seq < 64; seq++ {
				if g.draw(seq) != w.draw(seq) {
					t.Fatalf("%s: stream (%d,%d) draw %d differs", what, k, s, seq)
				}
			}
		}
	}
}

// FuzzCompile feeds arbitrary per-lane rates and bucket parameters into
// the plan→routing-table compiler and asserts its structural invariants
// — it either rejects the plan or produces a table whose alias draws stay
// in range for every stream — and, over every table it accepts, the laws
// of the transforms: the wire round trip and a rescale by ones are
// identities, a fleet of one's subdivision is the table itself, the shares
// of a subdivision sum back exactly, and a scale by one only marks the
// table degraded.
func FuzzCompile(f *testing.F) {
	f.Add(100.0, 50.0, 25.0, 10.0, uint64(1), 0.05, 8.0)
	f.Add(0.0, 0.0, 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(1e-12, 1e12, 1.0, 0.5, uint64(42), 1.0, 1.0)
	f.Add(-1.0, 2.0, 3.0, 4.0, uint64(7), 0.1, 2.0)
	f.Add(math.MaxFloat64, 1.0, 1.0, 1.0, uint64(3), 0.5, 4.0)
	f.Fuzz(func(t *testing.T, r0, r1, r2, r3 float64, seed uint64, burst, minBurst float64) {
		sys := &datacenter.System{
			Classes: []datacenter.RequestClass{
				{Name: "w", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}})},
			},
			FrontEnds: []datacenter.FrontEnd{
				{Name: "a", DistanceMiles: []float64{1, 2}},
				{Name: "b", DistanceMiles: []float64{2, 1}},
			},
			Centers: []datacenter.DataCenter{
				{Name: "x", Servers: 4, Capacity: 1, ServiceRate: []float64{1000}, EnergyPerRequest: []float64{1e-4}},
				{Name: "y", Servers: 4, Capacity: 1, ServiceRate: []float64{1000}, EnergyPerRequest: []float64{1e-4}},
			},
		}
		in := &core.Input{
			Sys:      sys,
			Arrivals: [][]float64{{1e9}, {1e9}},
			Prices:   []float64{0.05, 0.05},
		}
		plan := core.NewPlan(sys)
		plan.Rate[0][0][0][0] = r0
		plan.Rate[0][0][0][1] = r1
		plan.Rate[0][0][1][0] = r2
		plan.Rate[0][0][1][1] = r3
		plan.ServersOn = []int{4, 4}
		for l := 0; l < 2; l++ {
			plan.Phi[l][0] = []float64{1}
		}
		cfg := Config{Seed: seed, Burst: burst, MinBurst: minBurst, SlotSeconds: 60}
		if cfg.Validate(sys) != nil {
			t.Skip()
		}
		tab, err := Compile(in, plan, cfg)
		if err != nil {
			return // rejected is a valid answer; not panicking is the property
		}
		for k := 0; k < tab.K(); k++ {
			for s := 0; s < tab.S(); s++ {
				e := &tab.entries[k][s]
				if len(e.prob) != len(e.lanes) || len(e.alias) != len(e.lanes) {
					t.Fatalf("stream (%d,%d): ragged alias table", k, s)
				}
				for i, p := range e.prob {
					if math.IsNaN(p) || p < 0 || p > 1+1e-9 {
						t.Fatalf("stream (%d,%d) cell %d: prob %g", k, s, i, p)
					}
					if e.alias[i] < 0 || int(e.alias[i]) >= len(e.lanes) {
						t.Fatalf("stream (%d,%d) cell %d: alias %d out of range", k, s, i, e.alias[i])
					}
				}
				for seq := uint64(0); seq < 64; seq++ {
					lane := e.draw(seq)
					if len(e.lanes) == 0 {
						if lane != -1 {
							t.Fatalf("empty stream drew lane %d", lane)
						}
						continue
					}
					if lane < 0 || int(lane) >= len(tab.Lanes) {
						t.Fatalf("stream (%d,%d) seq %d: lane %d out of range", k, s, seq, lane)
					}
				}
			}
		}
		finite := true
		for i, ln := range tab.Lanes {
			if math.IsNaN(ln.Burst) || ln.Burst < 0 {
				t.Fatalf("lane %d: burst %g", i, ln.Burst)
			}
			finite = finite && !math.IsInf(ln.Burst, 0) && !math.IsInf(ln.MaxRate, 0)
		}
		// The wire refuses what no bucket can hold; anything else it must
		// carry across unchanged.
		if back, err := FromWire(tab.Wire()); err != nil {
			if finite {
				t.Fatalf("wire round trip of a finite table: %v", err)
			}
		} else {
			sameProduct(t, "wire round trip", back, tab)
		}
		ones := make([]float64, len(tab.Lanes))
		for i := range ones {
			ones[i] = 1
		}
		re, err := tab.Rescale(ones, tab.Sub, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameProduct(t, "rescale by ones", re, tab)
		same := tab.Scale(1, tab.Tier, cfg)
		if !same.Degraded {
			t.Fatal("scale by one left the table unmarked")
		}
		same.Degraded = tab.Degraded
		sameProduct(t, "scale by one", same, tab)
		if one, err := tab.Subdivide(0, 1, cfg); err != nil || one != tab {
			t.Fatalf("a fleet of one got %p (%v), want the table itself", one, err)
		}
		const n = 3
		rate, maxRate := make([]float64, len(tab.Lanes)), make([]float64, len(tab.Lanes))
		var planned [2]float64 // the fixture is one type × two front-ends
		for idx := 0; idx < n; idx++ {
			sub, err := tab.Subdivide(idx, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, ln := range sub.Lanes {
				rate[i] += ln.Rate
				maxRate[i] += ln.MaxRate
			}
			for s := range planned {
				p, _ := sub.Planned(0, s)
				planned[s] += p
			}
		}
		for i, ln := range tab.Lanes {
			if rate[i] != ln.Rate || maxRate[i] != ln.MaxRate {
				t.Fatalf("lane %d shares sum to rate %g headroom %g, want exactly %g and %g", i, rate[i], maxRate[i], ln.Rate, ln.MaxRate)
			}
		}
		for s := range planned {
			if want, _ := tab.Planned(0, s); planned[s] != want {
				t.Fatalf("stream (0,%d) shares sum to %g planned, want exactly %g", s, planned[s], want)
			}
		}
	})
}
