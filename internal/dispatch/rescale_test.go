package dispatch

import (
	"math"
	"testing"

	"profitlb/internal/core"
)

// TestRescaleIdentity: an all-ones multiplier vector reproduces the base
// table bit for bit — same per-stream budgets, same routing draws — with
// only the sub-epoch advanced. This is the controller's no-op contract:
// publishing an identity correction must not perturb serving.
func TestRescaleIdentity(t *testing.T) {
	cfg := Config{Seed: 31, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	tab.Epoch = 9
	ones := make([]float64, len(tab.Lanes))
	for i := range ones {
		ones[i] = 1
	}
	re, err := tab.Rescale(ones, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch != 9 || re.Sub != 4 {
		t.Fatalf("identity rescale pair (%d, %d), want (9, 4)", re.Epoch, re.Sub)
	}
	for i := range tab.Lanes {
		if re.Lanes[i].Rate != tab.Lanes[i].Rate || re.Lanes[i].MaxRate != tab.Lanes[i].MaxRate {
			t.Fatalf("lane %d changed under identity: rate %g→%g maxRate %g→%g",
				i, tab.Lanes[i].Rate, re.Lanes[i].Rate, tab.Lanes[i].MaxRate, re.Lanes[i].MaxRate)
		}
	}
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			pa, aa := tab.Planned(k, s)
			pb, ab := re.Planned(k, s)
			if pa != pb || aa != ab {
				t.Fatalf("stream (%d,%d) budgets moved: %g/%g → %g/%g", k, s, pa, aa, pb, ab)
			}
			ea, eb := &tab.entries[k][s], &re.entries[k][s]
			for seq := uint64(0); seq < 4000; seq++ {
				if ea.draw(seq) != eb.draw(seq) {
					t.Fatalf("stream (%d,%d) seq %d routes differently under identity rescale", k, s, seq)
				}
			}
		}
	}
}

// TestRescaleMaxRateCap: a multiplier that would push a lane past its
// compiled headroom is silently capped at MaxRate — the actuated table
// can never leave the capacity/deadline envelope the plan was verified
// against — while lanes with room scale exactly.
func TestRescaleMaxRateCap(t *testing.T) {
	cfg := Config{SlotSeconds: 60}.WithDefaults()
	w := &TableWire{
		Header: Header{Epoch: 1, SlotLen: 60, Seed: 7, ServersOn: []int{1, 1}},
		K:      1, S: 2,
		Lanes: []Lane{
			{K: 0, Q: 0, S: 0, L: 0, Rate: 100, MaxRate: 150, Burst: 300},
			{K: 0, Q: 0, S: 1, L: 1, Rate: 80, MaxRate: 400, Burst: 240},
		},
		Arrivals: [][]float64{{100, 80}},
	}
	tab, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	re, err := tab.Rescale([]float64{3, 3}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Lanes[0].Rate; got != 150 {
		t.Fatalf("capped lane rate %g, want MaxRate 150", got)
	}
	if got := re.Lanes[1].Rate; got != 240 {
		t.Fatalf("free lane rate %g, want 3×80 = 240", got)
	}
	// The per-stream planned budget tracks the re-scaled lane sum.
	if p, _ := re.Planned(0, 0); p != 150 {
		t.Fatalf("stream (0,0) planned %g, want 150", p)
	}
	if p, _ := re.Planned(0, 1); p != 240 {
		t.Fatalf("stream (0,1) planned %g, want 240", p)
	}
}

// TestRescaleInvalidMultipliers: malformed multiplier vectors are
// refused outright — the controller freezes on the error rather than
// installing a corrupt table.
func TestRescaleInvalidMultipliers(t *testing.T) {
	cfg := Config{Seed: 31, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	ones := make([]float64, len(tab.Lanes))
	for i := range ones {
		ones[i] = 1
	}
	bad := map[string][]float64{
		"short vector": ones[:1],
		"long vector":  append(append([]float64(nil), ones...), 1),
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), 0, -0.5} {
		m := append([]float64(nil), ones...)
		m[0] = v
		bad[formatMult(v)] = m
	}
	for name, m := range bad {
		if _, err := tab.Rescale(m, 1, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func formatMult(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN multiplier"
	case math.IsInf(v, 0):
		return "Inf multiplier"
	case v == 0:
		return "zero multiplier"
	default:
		return "negative multiplier"
	}
}

// TestInstallIfNewerLexicographic: the gateway fence orders tables by
// the (epoch, sub) pair lexicographically — a sub-epoch advances within
// its epoch only, a new epoch resets the sub sequence, and equal pairs
// count as duplicates.
func TestInstallIfNewerLexicographic(t *testing.T) {
	cfg := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: 4}
	gw := NewGateway(oneLaneSystem(), cfg, nil)

	mk := func(epoch, sub uint64, rate float64) *Table {
		tab := oneLaneTable(t, 0, rate, cfg)
		tab.Epoch, tab.Sub = epoch, sub
		return tab
	}
	steps := []struct {
		epoch, sub uint64
		install    bool
		why        string
	}{
		{3, 0, true, "first install"},
		{3, 1, true, "sub advance within epoch"},
		{3, 3, true, "sub may skip"},
		{3, 3, false, "duplicate pair"},
		{3, 2, false, "stale sub within epoch"},
		{2, 9, false, "older epoch loses despite higher sub"},
		{4, 0, true, "new epoch resets sub"},
		{4, 0, false, "duplicate at sub 0"},
		{3, 7, false, "stale epoch after reset"},
		{4, 2, true, "sub advances in the new epoch"},
	}
	rate := 1.0
	for _, st := range steps {
		rate++
		got := gw.InstallIfNewer(mk(st.epoch, st.sub, rate), 0, 0)
		if got != st.install {
			t.Fatalf("%s: install(%d,%d) = %v, want %v", st.why, st.epoch, st.sub, got, st.install)
		}
		if st.install {
			if gw.Epoch() != st.epoch || gw.Sub() != st.sub {
				t.Fatalf("%s: serving pair (%d,%d), want (%d,%d)",
					st.why, gw.Epoch(), gw.Sub(), st.epoch, st.sub)
			}
			if gw.Table().Lanes[0].Rate != rate {
				t.Fatalf("%s: serving rate %g, want %g", st.why, gw.Table().Lanes[0].Rate, rate)
			}
		}
	}
}

// TestWireSubMaxRate: the sub-epoch and per-lane headroom survive the
// wire round trip; hostile MaxRate values are rejected (NaN/Inf) or
// normalized up to Rate (a missing or undercut headroom must never make
// Rescale clamp below the committed plan).
func TestWireSubMaxRate(t *testing.T) {
	cfg := Config{Seed: 13, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	tab.Epoch, tab.Sub = 6, 2
	back, err := FromWire(tab.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 6 || back.Sub != 2 {
		t.Fatalf("round trip pair (%d,%d), want (6,2)", back.Epoch, back.Sub)
	}
	for i := range tab.Lanes {
		if back.Lanes[i].MaxRate != tab.Lanes[i].MaxRate {
			t.Fatalf("lane %d headroom %g → %g across the wire", i, tab.Lanes[i].MaxRate, back.Lanes[i].MaxRate)
		}
	}

	good := tab.Wire()
	clone := func() *TableWire {
		w := *good
		w.Lanes = append([]Lane(nil), good.Lanes...)
		return &w
	}
	w := clone()
	w.Lanes[0].MaxRate = math.NaN()
	if _, err := FromWire(w); err == nil {
		t.Error("NaN MaxRate accepted")
	}
	w = clone()
	w.Lanes[0].MaxRate = math.Inf(1)
	if _, err := FromWire(w); err == nil {
		t.Error("infinite MaxRate accepted")
	}
	w = clone()
	w.Lanes[0].MaxRate = 0 // legacy wire with no headroom field
	norm, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Lanes[0].MaxRate != norm.Lanes[0].Rate {
		t.Fatalf("zero headroom normalized to %g, want Rate %g", norm.Lanes[0].MaxRate, norm.Lanes[0].Rate)
	}
	w = clone()
	w.Lanes[0].MaxRate = w.Lanes[0].Rate / 2
	norm, err = FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Lanes[0].MaxRate != norm.Lanes[0].Rate {
		t.Fatalf("undercut headroom normalized to %g, want Rate %g", norm.Lanes[0].MaxRate, norm.Lanes[0].Rate)
	}
}

// TestCompileMaxRateHeadroom: every compiled lane carries MaxRate ≥ Rate
// — the committed share plus a nonnegative slice of the center's
// unallocated slack — so the controller always has a well-formed boost
// ceiling.
func TestCompileMaxRateHeadroom(t *testing.T) {
	cfg := Config{Seed: 3, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	for i, ln := range tab.Lanes {
		if ln.MaxRate < ln.Rate {
			t.Errorf("lane %d MaxRate %g < Rate %g", i, ln.MaxRate, ln.Rate)
		}
		if math.IsNaN(ln.MaxRate) || math.IsInf(ln.MaxRate, 0) {
			t.Errorf("lane %d MaxRate %g not finite", i, ln.MaxRate)
		}
	}
}

// TestSubdivideMaxRateTelescopes: the per-replica headroom shares sum
// back to the fleet-wide headroom exactly, like the rates — otherwise a
// fleet of controllers could jointly boost past the plan's envelope.
func TestSubdivideMaxRateTelescopes(t *testing.T) {
	cfg := Config{Seed: 21, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	for _, n := range []int{2, 3, 5} {
		sums := make([]float64, len(tab.Lanes))
		for idx := 0; idx < n; idx++ {
			sub, err := tab.Subdivide(idx, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sub.Lanes {
				if sub.Lanes[i].MaxRate < sub.Lanes[i].Rate-1e-12 {
					t.Fatalf("n=%d idx=%d lane %d share headroom %g < rate %g",
						n, idx, i, sub.Lanes[i].MaxRate, sub.Lanes[i].Rate)
				}
				sums[i] += sub.Lanes[i].MaxRate
			}
		}
		for i := range sums {
			if sums[i] != tab.Lanes[i].MaxRate {
				t.Errorf("n=%d lane %d headroom shares sum to %g, want exactly %g",
					n, i, sums[i], tab.Lanes[i].MaxRate)
			}
		}
	}
}

// FuzzControlRescale throws arbitrary multiplier vectors at Rescale and
// checks the controller-facing invariants: invalid multipliers always
// error; valid ones produce a table whose lanes respect the MaxRate
// envelope, whose per-stream planned budget equals its lane-rate sum,
// whose alias tables still route every draw to a lane of the right
// stream, and whose λ shares still telescope exactly across a Subdivide.
func FuzzControlRescale(f *testing.F) {
	cfg := Config{Seed: 51, SlotSeconds: 60}
	f.Add(1.0, 1.0, 1.0, 1.0)
	f.Add(2.5, 0.3, 1.0, 4.0)
	f.Add(0.001, 1000.0, 1.0, 1.0)
	f.Add(math.NaN(), 1.0, 1.0, 1.0)
	f.Add(-1.0, math.Inf(1), 0.0, 1.0)
	f.Fuzz(func(t *testing.T, m0, m1, m2, m3 float64) {
		in := testInput(testSystem())
		plan, err := core.NewOptimized().Plan(in)
		if err != nil {
			t.Skip()
		}
		tab, err := Compile(in, plan, cfg)
		if err != nil {
			t.Skip()
		}
		seed := []float64{m0, m1, m2, m3}
		mult := make([]float64, len(tab.Lanes))
		valid := true
		for i := range mult {
			m := seed[i%len(seed)]
			mult[i] = m
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				valid = false
			}
		}
		re, err := tab.Rescale(mult, 1, cfg)
		if !valid {
			if err == nil {
				t.Fatalf("invalid multipliers %v accepted", seed)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid multipliers %v rejected: %v", seed, err)
		}
		for i, ln := range re.Lanes {
			base := tab.Lanes[i]
			if ln.MaxRate > 0 && ln.Rate > ln.MaxRate*(1+1e-12) {
				t.Fatalf("lane %d rate %g above headroom %g", i, ln.Rate, ln.MaxRate)
			}
			want := base.Rate * mult[i]
			if base.MaxRate > 0 && want > base.MaxRate {
				want = base.MaxRate
			}
			if diff := math.Abs(ln.Rate - want); diff > 1e-9*math.Max(1, want) {
				t.Fatalf("lane %d rate %g, want %g", i, ln.Rate, want)
			}
		}
		for k := 0; k < re.K(); k++ {
			for s := 0; s < re.S(); s++ {
				sum := 0.0
				for _, ln := range re.Lanes {
					if ln.K == k && ln.S == s {
						sum += ln.Rate
					}
				}
				p, _ := re.Planned(k, s)
				if math.Abs(p-sum) > 1e-9*math.Max(1, sum) {
					t.Fatalf("stream (%d,%d) planned %g but lanes sum to %g", k, s, p, sum)
				}
				if sum == 0 {
					continue
				}
				e := &re.entries[k][s]
				for seq := uint64(0); seq < 64; seq++ {
					li := e.draw(seq)
					if li < 0 || int(li) >= len(re.Lanes) {
						t.Fatalf("stream (%d,%d) drew lane %d out of range", k, s, li)
					}
					if re.Lanes[li].K != k || re.Lanes[li].S != s {
						t.Fatalf("stream (%d,%d) drew foreign lane %d (k=%d s=%d)",
							k, s, li, re.Lanes[li].K, re.Lanes[li].S)
					}
				}
			}
		}
		// λ telescoping survives a rescale: subdividing the actuated table
		// still sums shares back to it exactly.
		const n = 3
		sums := make([]float64, len(re.Lanes))
		for idx := 0; idx < n; idx++ {
			sub, err := re.Subdivide(idx, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sub.Lanes {
				sums[i] += sub.Lanes[i].Rate
			}
		}
		for i := range sums {
			if sums[i] != re.Lanes[i].Rate {
				t.Fatalf("lane %d shares sum to %g, want exactly %g after rescale", i, sums[i], re.Lanes[i].Rate)
			}
		}
	})
}
