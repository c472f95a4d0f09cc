package loadgen

import (
	"encoding/json"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/obs"
)

// TestControlCleanBitIdentical: on a clean scenario the controller's
// dead band absorbs Poisson noise entirely — zero actuations, and the
// merged (time-ordered, tick-interleaved) replay serves bit-identically
// to the plain per-stream replay, down to every per-lane tally.
func TestControlCleanBitIdentical(t *testing.T) {
	run := func(ctrl bool) *Report {
		cfg := testSimConfig(3)
		f, src := harness(t, cfg, core.NewOptimized(), nil)
		rep, err := Run(f, src, Config{Seed: 9, Slots: cfg.Slots, Control: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(false)
	on := run(true)
	if n := on.Actuations(); n != 0 {
		t.Fatalf("clean scenario actuated %d times; the dead band should absorb Poisson noise", n)
	}
	for i := range on.Slots {
		if on.Slots[i].ControlFrozen {
			t.Fatalf("slot %d froze on the clean path", on.Slots[i].Slot)
		}
	}
	a, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("controller-on replay diverged from controller-off on a clean scenario:\n%s\n%s", a, b)
	}
}

// TestBurstTargetingKeepsPoissonElsewhere: with BurstFrontEnd set, only
// the targeted front-end's streams run the MMPP — every other stream
// produces exactly the arrivals a pure-Poisson replay of the same seed
// does (the regression for the previously fleet-global BurstFactor).
func TestBurstTargetingKeepsPoissonElsewhere(t *testing.T) {
	const T = 60.0
	target := 0
	bursty := &Config{BurstFactor: 4, BurstFrontEnd: &target}
	plain := &Config{}
	for s := 0; s < 2; s++ {
		for k := 0; k < 2; k++ {
			seed := streamSeed(42, 0, s, k)
			got, err := synthesize(900, T, seed, bursty, nil, k, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := synthesize(900, T, seed, plain, nil, k, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			same := len(got) == len(want)
			if same {
				for i := range got {
					if got[i] != want[i] {
						same = false
						break
					}
				}
			}
			if s == target && same {
				t.Fatalf("stream (k=%d,s=%d) is the burst target but matched pure Poisson", k, s)
			}
			if s != target && !same {
				t.Fatalf("stream (k=%d,s=%d) is untargeted but diverged from pure Poisson (%d vs %d arrivals)",
					k, s, len(got), len(want))
			}
		}
	}
}

// flashSchedule pins a mean-increasing crowd on front-end 0 for the
// whole horizon.
func flashSchedule(slots int, factor float64) *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FlashCrowd, FrontEnd: 0, Factor: factor, From: 0, To: slots - 1},
	}}
}

// TestFlashCrowdControllerBeatsFrozen is the tentpole's acceptance gate:
// under a flash crowd the committed plan underestimates demand, so
// frozen tables shed the excess; the controller re-scales lanes toward
// realized demand inside the MaxRate envelope and must strictly beat
// the frozen replay on both realized profit and worst lane demand
// error.
func TestFlashCrowdControllerBeatsFrozen(t *testing.T) {
	run := func(ctrl bool) *Report {
		cfg := testSimConfig(4)
		cfg.Faults = flashSchedule(cfg.Slots, 2)
		f, src := harness(t, cfg, core.NewOptimized(), nil)
		rep, err := Run(f, src, Config{Seed: 17, Slots: cfg.Slots, Control: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	frozen := run(false)
	steered := run(true)
	if n := steered.Actuations(); n == 0 {
		t.Fatal("flash crowd produced zero actuations")
	}
	for i := range steered.Slots {
		if steered.Slots[i].ControlFrozen {
			t.Fatalf("slot %d froze under the flash crowd", steered.Slots[i].Slot)
		}
	}
	fp, sp := frozen.TotalNetProfit(), steered.TotalNetProfit()
	if sp <= fp {
		t.Fatalf("controller profit %.2f did not beat frozen %.2f under the flash crowd", sp, fp)
	}
	fe, se := frozen.MaxDemandError(500), steered.MaxDemandError(500)
	if se >= fe {
		t.Fatalf("controller demand error %.4f did not beat frozen %.4f", se, fe)
	}
	// The crowd's realized mean is 1.5× the plan on the targeted
	// front-end: the frozen replay must visibly shed (demand error well
	// above the dead band) for the comparison to mean anything.
	if fe < 0.15 {
		t.Fatalf("frozen demand error %.4f too small — the fault is not biting", fe)
	}
}

// TestSlowCenterControllerShedsExcess: a center serving at half rate
// turns the frozen plan's excess admissions into pure cost (revenue
// zero past the sagged capacity). The controller's centerFactor cap
// ramps the center's lanes down to the effective rate, shedding exactly
// the unprofitable excess, so it must realize strictly more profit.
func TestSlowCenterControllerShedsExcess(t *testing.T) {
	run := func(ctrl bool) *Report {
		cfg := testSimConfig(3)
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.SlowCenter, Center: 0, Factor: 0.5, From: 0, To: cfg.Slots - 1},
		}}
		f, src := harness(t, cfg, core.NewOptimized(), nil)
		rep, err := Run(f, src, Config{Seed: 23, Slots: cfg.Slots, Control: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	frozen := run(false)
	steered := run(true)
	if steered.Actuations() == 0 {
		t.Fatal("slow center produced zero actuations")
	}
	fp, sp := frozen.TotalNetProfit(), steered.TotalNetProfit()
	if sp <= fp {
		t.Fatalf("controller profit %.2f did not beat frozen %.2f under the slow center", sp, fp)
	}
	// The steered replay serves less raw traffic on the sagged center
	// than the frozen one — the win comes from not paying for work that
	// earns nothing.
	var frozenSag, steeredSag int64
	for i := range frozen.Slots {
		for j := range frozen.Slots[i].Lanes {
			if frozen.Slots[i].Lanes[j].L == 0 {
				frozenSag += frozen.Slots[i].Lanes[j].Admitted
			}
		}
	}
	for i := range steered.Slots {
		for j := range steered.Slots[i].Lanes {
			if steered.Slots[i].Lanes[j].L == 0 {
				steeredSag += steered.Slots[i].Lanes[j].Admitted
			}
		}
	}
	if steeredSag >= frozenSag {
		t.Fatalf("steered replay admitted %d on the sagged center vs frozen %d; the cap is not actuating", steeredSag, frozenSag)
	}
}

// TestFleetControlCleanBitIdentical: the fleet replay's merged loop
// preserves per-stream arrival and spray order, so a quiet controller
// leaves a fleet replay bit-identical too.
func TestFleetControlCleanBitIdentical(t *testing.T) {
	run := func(ctrl bool) *Report {
		cfg := testSimConfig(3)
		f, src := fleetHarness(t, cfg, 3, nil, nil)
		rep, err := Run(f, src, Config{Seed: 9, Slots: cfg.Slots, Control: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off := run(false)
	on := run(true)
	if n := on.Actuations(); n != 0 {
		t.Fatalf("clean fleet replay actuated %d times", n)
	}
	a, _ := json.Marshal(off)
	b, _ := json.Marshal(on)
	if string(a) != string(b) {
		t.Fatalf("fleet controller-on replay diverged on a clean scenario:\n%s\n%s", a, b)
	}
}

// TestFleetControlFlashCrowd: corrections propagate through the
// epoch-fenced publisher to every replica — the fleet's demand tracking
// improves and no replica ever answers Invalid.
func TestFleetControlFlashCrowd(t *testing.T) {
	run := func(ctrl bool) *Report {
		cfg := testSimConfig(4)
		cfg.Faults = flashSchedule(cfg.Slots, 2)
		f, src := fleetHarness(t, cfg, 3, cfg.Faults, nil)
		rep, err := Run(f, src, Config{Seed: 31, Slots: cfg.Slots, Control: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	frozen := run(false)
	steered := run(true)
	if steered.Actuations() == 0 {
		t.Fatal("fleet flash crowd produced zero actuations")
	}
	if steered.Invalid() != 0 {
		t.Fatalf("%d invalid answers under control", steered.Invalid())
	}
	fe, se := frozen.MaxDemandError(500), steered.MaxDemandError(500)
	if se >= fe {
		t.Fatalf("fleet controller demand error %.4f did not beat frozen %.4f", se, fe)
	}
}

// TestFleetControlEventsJoinBySlotAndEpoch: one slot's story joins across
// the planes by field. Under a flash crowd on a 2-replica fleet, each
// slot's base table is applied once per replica under the epoch the
// driver minted for it, and every controller actuation names a (slot,
// epoch) the replicas applied, whose correction each replica then applied
// under the actuation's sub-epoch.
func TestFleetControlEventsJoinBySlotAndEpoch(t *testing.T) {
	cfg := testSimConfig(4)
	cfg.Faults = flashSchedule(cfg.Slots, 2)
	col := &obs.Collector{}
	f, src := fleetHarness(t, cfg, 2, cfg.Faults, obs.NewScope(obs.NewRegistry(), col))
	rep, err := Run(f, src, Config{Seed: 31, Slots: cfg.Slots, Control: true})
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		slot       int
		epoch, sub uint64
	}
	applied := map[at]map[string]int{} // per replica
	var actuations []obs.Event
	for _, ev := range col.Events() {
		if _, ok := ev.Values["epoch"]; ok {
			t.Fatalf("%s event carries its epoch in Values: %+v", ev.Kind, ev)
		}
		switch ev.Kind {
		case obs.KindEpochApplied:
			if ev.Replica == "" || ev.Planner != "" {
				t.Fatalf("epoch-applied names its replica in Replica %q, Planner %q", ev.Replica, ev.Planner)
			}
			k := at{ev.Slot, ev.Epoch, ev.Sub}
			if applied[k] == nil {
				applied[k] = map[string]int{}
			}
			applied[k][ev.Replica]++
		case obs.KindControlActuation:
			actuations = append(actuations, ev)
		}
	}
	once := func(k at) bool {
		got := applied[k]
		return len(got) == 2 && got[f.Replicas[0].ID] == 1 && got[f.Replicas[1].ID] == 1
	}
	for _, s := range rep.Slots {
		if s.Epoch == 0 || !once(at{s.Slot, s.Epoch, 0}) {
			t.Fatalf("slot %d: driver epoch %d applied %v, want once per replica", s.Slot, s.Epoch, applied[at{s.Slot, s.Epoch, 0}])
		}
	}
	if len(actuations) == 0 {
		t.Fatal("the flash crowd produced no actuation to join")
	}
	for _, ev := range actuations {
		if !once(at{ev.Slot, ev.Epoch, 0}) || ev.Sub == 0 || !once(at{ev.Slot, ev.Epoch, ev.Sub}) {
			t.Fatalf("actuation at slot %d epoch %d sub %d joins no applied base and correction: %v / %v",
				ev.Slot, ev.Epoch, ev.Sub, applied[at{ev.Slot, ev.Epoch, 0}], applied[at{ev.Slot, ev.Epoch, ev.Sub}])
		}
	}
}
