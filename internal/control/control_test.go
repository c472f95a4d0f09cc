package control

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/tuf"
)

// wireTable builds a hand-scripted 2×2 table through the wire decoder so
// every rate and MaxRate headroom is exactly what the test says.
func wireTable(t testing.TB) *dispatch.Table {
	t.Helper()
	w := &dispatch.TableWire{
		Header: dispatch.Header{Epoch: 1, Slot: 0, SlotLen: 60, Seed: 42, ServersOn: []int{2, 2}},
		K:      2, S: 2,
		Lanes: []dispatch.Lane{
			{K: 0, Q: 0, S: 0, L: 0, Rate: 100, MaxRate: 400, Burst: 300, Utility: 0.01},
			{K: 0, Q: 0, S: 0, L: 1, Rate: 50, MaxRate: 200, Burst: 150, Utility: 0.01},
			{K: 0, Q: 0, S: 1, L: 0, Rate: 80, MaxRate: 320, Burst: 240, Utility: 0.01},
			{K: 1, Q: 0, S: 0, L: 1, Rate: 40, MaxRate: 60, Burst: 120, Utility: 0.05},
		},
		Arrivals: [][]float64{{150, 80}, {40, 0}},
	}
	tab, err := dispatch.FromWire(w)
	if err != nil {
		t.Fatalf("FromWire: %v", err)
	}
	return tab
}

// fakePlant is a scripted plant: the test sets the offered counters
// between ticks; Publish adopts the table's sub-epoch and resets the
// counters exactly like a real install.
type fakePlant struct {
	epoch, sub uint64
	off        []int64
	published  []*dispatch.Table
	reject     bool
	// gw, when set, receives every published table too — a live hot-swap
	// target for race-detector coverage.
	gw *dispatch.Gateway
}

func newFakePlant(tab *dispatch.Table) *fakePlant {
	return &fakePlant{epoch: tab.Epoch, sub: tab.Sub, off: make([]int64, tab.K()*tab.S())}
}

func (p *fakePlant) Sample(epoch, sub uint64) Sample {
	if epoch != p.epoch || sub != p.sub {
		return Sample{}
	}
	out := make([]int64, len(p.off))
	copy(out, p.off)
	return Sample{OK: true, StreamOffered: out, Coverage: 1}
}

func (p *fakePlant) Publish(t *dispatch.Table, now float64) bool {
	if p.reject {
		return false
	}
	if p.gw != nil {
		p.gw.InstallIfNewer(t, now, 0)
	}
	p.sub = t.Sub
	p.published = append(p.published, t)
	for i := range p.off {
		p.off[i] = 0
	}
	return true
}

// addDemand accrues one tick window of offered traffic: ratio× the
// stream's planned arrival for window wd.
func (p *fakePlant) addDemand(tab *dispatch.Table, k, s int, ratio, wd float64) {
	_, arrival := tab.Planned(k, s)
	p.off[k*tab.S()+s] += int64(ratio * arrival * wd)
}

// TestConstantsAreTheOldDefaults pins every setting that used to be a
// control key to the value its default was.
func TestConstantsAreTheOldDefaults(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"ticksPerSlot", TicksPerSlot, 8},
		{"deadband (deadBand)", deadband, 0.15},
		{"reentryBand", reentryBand, 0.075},
		{"gain", gain, 0.5},
		{"maxStep", maxStep, 0.25},
		{"minMult", minMult, 0.1},
		{"maxMult", maxMult, 4},
		{"minSamples", minSamples, 16},
		{"thinBandSigmas (noiseSigmas)", thinBandSigmas, 4},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, the key's default was %g", c.name, c.got, c.want)
		}
	}
}

// TestStepDisturbanceSettles drives a sustained 2× demand step into one
// stream and asserts the anti-oscillation contract: the disturbed
// stream's multiplier rises monotonically, never exceeds the demand
// target, and the loop converges to silence (no ringing, no further
// actuations).
func TestStepDisturbanceSettles(t *testing.T) {
	tab := wireTable(t)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, nil)
	const wd = 7.5 // one tick window
	baseRate := tab.Lanes[0].Rate
	var path []float64
	quietTail := 0
	for j := 1; j <= 64; j++ {
		plant.addDemand(tab, 0, 0, 2.0, wd) // the step: stream (0,0) at 2× plan
		plant.addDemand(tab, 0, 1, 1.0, wd)
		plant.addDemand(tab, 1, 0, 1.0, wd)
		acted := ctrl.Tick(float64(j) * wd)
		if acted {
			quietTail = 0
			last := plant.published[len(plant.published)-1]
			path = append(path, last.Lanes[0].Rate/baseRate)
		} else {
			quietTail++
		}
	}
	if ctrl.Frozen() {
		t.Fatalf("controller froze on a clean step: log %v", ctrl.Log())
	}
	if len(path) == 0 {
		t.Fatal("2x step inside a 15% dead band produced no actuations")
	}
	for i := 1; i < len(path); i++ {
		if path[i] < path[i-1]-1e-12 {
			t.Fatalf("multiplier rang: step %d went %g -> %g", i, path[i-1], path[i])
		}
	}
	// The scripted integer demand floors just under 2×; allow that sliver.
	target := 2.0
	for i, m := range path {
		if m > target+1e-9 {
			t.Fatalf("overshoot: step %d multiplier %g above target %g", i, m, target)
		}
	}
	final := path[len(path)-1]
	if final < 1.8 {
		t.Fatalf("settled multiplier %g, want near %g", final, target)
	}
	if quietTail < 8 {
		t.Fatalf("loop did not converge to silence: only %d quiet trailing ticks", quietTail)
	}
}

// TestMaxRateCapsBoost pins the boost to the lane's compiled headroom:
// lane 3's MaxRate is only 1.5× its rate, so even a 3× demand step must
// stop there.
func TestMaxRateCapsBoost(t *testing.T) {
	tab := wireTable(t)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, nil)
	const wd = 7.5
	for j := 1; j <= 32; j++ {
		plant.addDemand(tab, 0, 0, 1.0, wd)
		plant.addDemand(tab, 0, 1, 1.0, wd)
		plant.addDemand(tab, 1, 0, 3.0, wd) // stream (1,0): only lane 3
		ctrl.Tick(float64(j) * wd)
	}
	if len(plant.published) == 0 {
		t.Fatal("no actuations")
	}
	last := plant.published[len(plant.published)-1]
	maxr := tab.Lanes[3].MaxRate
	if last.Lanes[3].Rate > maxr+1e-9 {
		t.Fatalf("lane 3 boosted to %g past MaxRate %g", last.Lanes[3].Rate, maxr)
	}
	if last.Lanes[3].Rate < maxr*0.98 {
		t.Fatalf("lane 3 at %g did not reach its MaxRate cap %g under 3x demand", last.Lanes[3].Rate, maxr)
	}
}

// TestCenterFactorCapsLanes pins slow-center capping: every lane on the
// sagged center converges down to the factor, lanes elsewhere hold.
func TestCenterFactorCapsLanes(t *testing.T) {
	tab := wireTable(t)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, []float64{1, 0.5}) // center 1 sags to half service
	const wd = 7.5
	for j := 1; j <= 32; j++ {
		plant.addDemand(tab, 0, 0, 1.0, wd)
		plant.addDemand(tab, 0, 1, 1.0, wd)
		plant.addDemand(tab, 1, 0, 1.0, wd)
		ctrl.Tick(float64(j) * wd)
	}
	if len(plant.published) == 0 {
		t.Fatal("slow-center cap produced no actuations")
	}
	last := plant.published[len(plant.published)-1]
	for _, li := range []int{1, 3} { // lanes on center 1
		want := tab.Lanes[li].Rate * 0.5
		if math.Abs(last.Lanes[li].Rate-want) > want*0.02 {
			t.Fatalf("lane %d on sagged center at %g, want ~%g", li, last.Lanes[li].Rate, want)
		}
	}
	for _, li := range []int{0, 2} { // lanes on the healthy center
		if math.Abs(last.Lanes[li].Rate-tab.Lanes[li].Rate) > 1e-9 {
			t.Fatalf("lane %d on healthy center moved to %g", li, last.Lanes[li].Rate)
		}
	}
}

// TestDeadBandZeroActuations feeds seeded white noise inside the dead
// band and requires total silence: no actuations, no log lines, no
// freeze.
func TestDeadBandZeroActuations(t *testing.T) {
	tab := wireTable(t)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, nil)
	rng := rand.New(rand.NewSource(7))
	const wd = 7.5
	for j := 1; j <= 64; j++ {
		for k := 0; k < tab.K(); k++ {
			for s := 0; s < tab.S(); s++ {
				plant.addDemand(tab, k, s, 1+(rng.Float64()-0.5)*0.2, wd) // ±10% noise
			}
		}
		if ctrl.Tick(float64(j) * wd) {
			t.Fatalf("tick %d actuated inside the dead band", j)
		}
	}
	if ctrl.Actuations() != 0 || len(ctrl.Log()) != 0 || ctrl.Frozen() {
		t.Fatalf("white noise: actuations=%d log=%v frozen=%v", ctrl.Actuations(), ctrl.Log(), ctrl.Frozen())
	}
}

// TestHysteresis checks both edges: a stream must cross the dead band to
// wake the controller, and once awake it keeps tracking between the
// re-entry band and the dead band — only dropping below the re-entry band
// re-arms the band.
func TestHysteresis(t *testing.T) {
	tab := wireTable(t)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, nil)
	const wd = 7.5
	now := 0.0
	tick := func(ratio float64) bool {
		now += wd
		plant.addDemand(tab, 0, 0, ratio, wd)
		plant.addDemand(tab, 0, 1, 1.0, wd)
		plant.addDemand(tab, 1, 0, 1.0, wd)
		return ctrl.Tick(now)
	}
	// 12% deviation: inside the dead band, asleep.
	if tick(1.12) {
		t.Fatal("actuated below the dead band")
	}
	// 30% deviation: crossed, wakes and actuates.
	if !tick(1.3) {
		t.Fatal("no actuation past the dead band")
	}
	// Back to 12%: above ReentryBand (7.5%), so the stream stays active
	// and keeps tracking — the multiplier moves toward 1.12.
	if !tick(1.12) {
		t.Fatal("active stream stopped tracking inside the hysteresis band")
	}
	// 5% deviation: below ReentryBand — the stream re-enters the band and
	// the multiplier ramps back toward 1 (still actuating while it
	// unwinds), then goes quiet.
	quiet := false
	for j := 0; j < 32; j++ {
		if !tick(1.05) {
			quiet = true
			break
		}
	}
	if !quiet {
		t.Fatal("multiplier never unwound to silence after re-entry")
	}
	// Asleep again: 12% must not wake it.
	if tick(1.12) {
		t.Fatal("re-armed stream actuated below the dead band")
	}
	if ctrl.Frozen() {
		t.Fatalf("froze during hysteresis sweep: %v", ctrl.Log())
	}
}

// TestFreezeConditions walks every degradation path: stale counters,
// backwards counters, a stopped clock, and a rejected publish all freeze
// at the last safe table, log a reason, and stay inert for the slot.
func TestFreezeConditions(t *testing.T) {
	const wd = 7.5
	arm := func(t *testing.T) (*dispatch.Table, *fakePlant, *Controller) {
		tab := wireTable(t)
		plant := newFakePlant(tab)
		ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
		ctrl.BeginSlot(tab, 0, nil)
		return tab, plant, ctrl
	}
	t.Run("stale sub-epoch", func(t *testing.T) {
		tab, plant, ctrl := arm(t)
		plant.sub = 99 // someone else published
		plant.addDemand(tab, 0, 0, 2.0, wd)
		if ctrl.Tick(wd) {
			t.Fatal("actuated on a stale observation")
		}
		if !ctrl.Frozen() || !strings.Contains(ctrl.Log()[0], "stale-counters") {
			t.Fatalf("frozen=%v log=%v", ctrl.Frozen(), ctrl.Log())
		}
	})
	t.Run("backwards counters", func(t *testing.T) {
		tab, plant, ctrl := arm(t)
		plant.addDemand(tab, 0, 0, 2.0, wd)
		if !ctrl.Tick(wd) {
			t.Fatal("warm-up actuation missing")
		}
		// Counters reset on publish; now wind one *backwards*.
		plant.off[0] = -5
		if ctrl.Tick(2 * wd) {
			t.Fatal("actuated on backwards counters")
		}
		if !ctrl.Frozen() {
			t.Fatal("backwards counters did not freeze")
		}
	})
	t.Run("stopped clock", func(t *testing.T) {
		tab, plant, ctrl := arm(t)
		plant.addDemand(tab, 0, 0, 2.0, wd)
		ctrl.Tick(wd)
		if ctrl.Tick(wd) { // same timestamp: zero window
			t.Fatal("actuated on a zero sample window")
		}
		if !ctrl.Frozen() || !strings.Contains(strings.Join(ctrl.Log(), "\n"), "clock") {
			t.Fatalf("frozen=%v log=%v", ctrl.Frozen(), ctrl.Log())
		}
	})
	t.Run("publish rejected", func(t *testing.T) {
		tab, plant, ctrl := arm(t)
		plant.reject = true
		plant.addDemand(tab, 0, 0, 2.0, wd)
		if ctrl.Tick(wd) {
			t.Fatal("reported actuation on a rejected publish")
		}
		if !ctrl.Frozen() || !strings.Contains(strings.Join(ctrl.Log(), "\n"), "publish-rejected") {
			t.Fatalf("frozen=%v log=%v", ctrl.Frozen(), ctrl.Log())
		}
		// Frozen: further ticks are inert even with wild demand.
		plant.reject = false
		plant.addDemand(tab, 0, 0, 4.0, wd)
		if ctrl.Tick(2 * wd) {
			t.Fatal("frozen controller actuated")
		}
	})
	t.Run("begin slot lifts freeze", func(t *testing.T) {
		tab, plant, ctrl := arm(t)
		plant.reject = true
		plant.addDemand(tab, 0, 0, 2.0, wd)
		ctrl.Tick(wd)
		if !ctrl.Frozen() {
			t.Fatal("not frozen")
		}
		plant.reject = false
		next := wireTable(t)
		next.Epoch = 2
		plant.epoch, plant.sub = 2, 0
		for i := range plant.off {
			plant.off[i] = 0
		}
		ctrl.BeginSlot(next, 100, nil)
		if ctrl.Frozen() {
			t.Fatal("freeze survived BeginSlot")
		}
		plant.addDemand(next, 0, 0, 2.0, wd)
		if !ctrl.Tick(100 + wd) {
			t.Fatal("controller dead after unfreeze")
		}
	})
	t.Run("nil base disarms", func(t *testing.T) {
		_, plant, ctrl := arm(t)
		ctrl.BeginSlot(nil, 0, nil)
		plant.addDemand(wireTable(t), 0, 0, 2.0, wd)
		if ctrl.Tick(wd) {
			t.Fatal("disarmed controller actuated")
		}
	})
}

// TestDeterministicLog is the determinism suite: the same seed and the
// same scripted counter stream must produce byte-identical actuation
// logs, with a live gateway absorbing every published table under
// concurrent Handle traffic so the race detector sees the full
// controller↔hot-path interplay.
func TestDeterministicLog(t *testing.T) {
	run := func() []string {
		tab := wireTable(t)
		gw := dispatch.NewGateway(nil, dispatch.Config{SlotSeconds: 60}, nil)
		gw.Install(tab, 0, 0)
		plant := newFakePlant(tab)
		plant.gw = gw
		ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
		ctrl.BeginSlot(tab, 0, nil)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				now := 0.0
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					gw.Handle(i%2, (i+w)%2, now)
					now += 1e-4
				}
			}(w)
		}
		rng := rand.New(rand.NewSource(99))
		const wd = 7.5
		for j := 1; j <= 48; j++ {
			ratio := 1.0
			if j >= 8 && j < 32 {
				ratio = 1.5 + 0.8*rng.Float64() // a drifting crowd
			}
			plant.addDemand(tab, 0, 0, ratio, wd)
			plant.addDemand(tab, 0, 1, 1.0, wd)
			plant.addDemand(tab, 1, 0, 1.0, wd)
			ctrl.Tick(float64(j) * wd)
		}
		close(stop)
		wg.Wait()
		return ctrl.Log()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("determinism run produced no actuations")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("actuation logs diverged:\n--- a ---\n%s\n--- b ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestFleetPlantRoundTrip exercises the real plant over a fleet of one:
// samples reflect Handle traffic, publishes land through the (epoch, sub)
// fence, and a table swapped under the controller invalidates the
// observation.
func TestFleetPlantRoundTrip(t *testing.T) {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}}), TransferCostPerMile: 1e-6},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "east", DistanceMiles: []float64{300, 2400}}},
		Centers: []datacenter.DataCenter{
			{Name: "tx", Servers: 8, Capacity: 1, ServiceRate: []float64{20000}, EnergyPerRequest: []float64{0.0003}},
			{Name: "ca", Servers: 8, Capacity: 1, ServiceRate: []float64{18000}, EnergyPerRequest: []float64{0.0003}},
		},
	}
	dcfg := dispatch.Config{SlotSeconds: 60}
	drv := &dispatch.Driver{
		Gateway: dispatch.NewGateway(sys, dcfg, nil),
		Planner: core.NewOptimized(),
		Source:  fixedSource{&core.Input{Sys: sys, Arrivals: [][]float64{{30000}}, Prices: []float64{0.05, 0.08}}},
	}
	f, err := cluster.NewFleet(sys, dcfg, cluster.Config{}, drv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := f.BeginSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := dispatch.FromWire(pub.Table)
	if err != nil {
		t.Fatal(err)
	}
	gw := f.Replicas[0].Gateway()
	plant := &FleetPlant{Pub: f.Pub, Replicas: f.Replicas}
	for i := 0; i < 40; i++ {
		gw.Handle(0, 0, float64(i)*0.01)
	}
	smp := plant.Sample(tab.Epoch, 0)
	if !smp.OK || smp.StreamOffered[0] != 40 || smp.Coverage != 1 {
		t.Fatalf("sample = %+v", smp)
	}
	if plant.Sample(tab.Epoch+1, 0).OK || plant.Sample(tab.Epoch, 1).OK {
		t.Fatal("mismatched (epoch, sub) sampled OK")
	}
	mult := make([]float64, len(tab.Lanes))
	for i := range mult {
		mult[i] = 1
	}
	mult[0] = 1.5
	next, err := tab.Rescale(mult, 1, dcfg)
	if err != nil {
		t.Fatalf("rescale: %v", err)
	}
	if !plant.Publish(next, 1) {
		t.Fatal("publish rejected")
	}
	if gw.Sub() != 1 {
		t.Fatalf("gateway sub = %d after control publish", gw.Sub())
	}
	// Counters reset on install.
	if smp := plant.Sample(tab.Epoch, 1); !smp.OK || smp.StreamOffered[0] != 0 {
		t.Fatalf("post-publish sample = %+v", smp)
	}
	// Re-publishing the same sub is fenced as a duplicate.
	if plant.Publish(next, 2) {
		t.Fatal("duplicate sub-epoch published")
	}
}

// fixedSource replays one planner input at every slot.
type fixedSource struct{ in *core.Input }

func (s fixedSource) PlannerInput(abs int) (*core.Input, error) {
	in := *s.in
	in.Slot = abs
	return &in, nil
}
