package mpc_test

import (
	"math"
	"reflect"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/sim"
)

// ledgerTap records the ledgers a host settles, so planes that keep no
// per-slot report (the Driver) can be compared with the ones that do.
type ledgerTap struct {
	*mpc.Planner
	ledgers []core.BacklogSlot
}

func (t *ledgerTap) CommitSlot(actual *core.Input, committed *core.Plan) core.BacklogSlot {
	l := t.Planner.CommitSlot(actual, committed)
	t.ledgers = append(t.ledgers, l)
	return l
}

// TestCrossPlaneEquivalence: sim.Run and a dispatch.Driver (the serving
// plane's planning half) both commit slots through core.Step, so on clean
// inputs they commit the same plans — per-slot objectives agree across
// the two planes, and a
// deferring planner's backlog is aged, drained and billed online exactly
// as in the simulator (the Driver used to never settle it: deferred work
// silently disappeared). Every plane hands its source's feed projections
// to the MPC planner (sim.InputSource.Attach — the Driver does it itself
// before its first slot, no host has to remember), so the two agree on
// the window too. The feeds row runs the feed's estimator ladder off its
// fresh tier: the price feed is lost from slot 1, with one sample in its
// cache and its filter cold. Once the sample's TTL runs out the slot's
// price is the prior (the ramp's mean), but the feed still projects the
// cached slot-0 price, far below it, so the planner defers batch work
// that a window projected from the prior would serve at once.
func TestCrossPlaneEquivalence(t *testing.T) {
	vibration := accConfig(accSys(), market.Houston(), 13, 8) // the Houston 13–21 h vibration
	ramp := &market.PriceTrace{Name: "ramp"}
	for i := 0; i < 14; i++ {
		ramp.Prices = append(ramp.Prices, 0.06+0.0045*float64(i))
	}
	rising := accConfig(accSys(), ramp, 0, 14)
	rising.Feeds = &feed.Config{}
	rising.KeepPlans = true
	rising.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 0, From: 1, To: 99},
	}}
	newMPC := func(horizon, end int) func() core.Planner {
		return func() core.Planner {
			return &ledgerTap{Planner: mpc.New(mpc.Config{Horizon: horizon, MaxDefer: []int{0, 2}, EndSlot: end})}
		}
	}
	for _, c := range []struct {
		name  string
		cfg   sim.Config
		build func() core.Planner
	}{
		{"optimized", vibration, func() core.Planner { return core.NewOptimized() }},
		{"mpc", vibration, newMPC(5, 21)},
		{"mpc+feeds", rising, newMPC(4, 14)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, build := c.cfg, c.build
			fluid, err := sim.Run(cfg, build())
			if err != nil {
				t.Fatal(err)
			}
			src, err := sim.NewInputSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			online := build()
			d := &dispatch.Driver{
				Gateway: dispatch.NewGateway(cfg.Sys, dispatch.Config{}.WithDefaults(), nil),
				Planner: online, Source: src,
			}
			var simSum, onlineSum, arrived, served float64
			for i, sr := range fluid.Slots {
				table, err := d.PlanTable(cfg.StartSlot + i)
				if err != nil || d.LastErr != nil {
					t.Fatalf("slot %d: driver %v / %v", sr.Slot, err, d.LastErr)
				}
				// The online planes report the objective on the planner's
				// view. The simulator's books are the same number while the
				// view is the truth; under a feed fault they are kept at the
				// true price, and the plan it kept says what it committed.
				want := sr.NetProfit
				if cfg.Faults != nil {
					want = sr.Plan.Objective
				}
				if got := table.Objective; math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Fatalf("slot %d: driver committed %.12g, sim %.12g", sr.Slot, got, want)
				}
				simSum += want
				onlineSum += table.Objective
				for _, ln := range table.Lanes {
					served += ln.Rate
				}
				arrived += cfg.Traces[0].At(sr.Slot, 0) + cfg.Traces[0].At(sr.Slot, 1)
			}
			if math.Abs(onlineSum-simSum) > 1e-9*simSum {
				t.Fatalf("driver committed Σ %.12g, sim booked Σ %.12g", onlineSum, simSum)
			}
			tap, deferring := online.(*ledgerTap)
			if !deferring {
				return
			}
			if len(tap.ledgers) != len(fluid.Slots) {
				t.Fatalf("driver settled %d ledgers over %d slots", len(tap.ledgers), len(fluid.Slots))
			}
			var deferred, lost float64
			for i, l := range tap.ledgers {
				if want := *fluid.Slots[i].Backlog; !reflect.DeepEqual(l, want) {
					t.Fatalf("slot %d: driver ledger %+v, sim ledger %+v", fluid.Slots[i].Slot, l, want)
				}
				if shed := core.Total(l.Shed); shed != 0 {
					t.Fatalf("slot %d: deadline miss online, shed %g", fluid.Slots[i].Slot, shed)
				}
				deferred += core.Total(l.DeferredNew)
				lost += core.Total(l.LostNew)
			}
			if deferred <= 0 {
				t.Fatal("nothing deferred online across the spike slots")
			}
			final := core.Total(tap.ledgers[len(tap.ledgers)-1].BacklogOut)
			if final != 0 {
				t.Fatalf("backlog %g stranded online despite EndSlot", final)
			}
			if gap := arrived - served - lost - final; math.Abs(gap) > 1e-9*arrived {
				t.Fatalf("online conservation broken: arrived %g ≠ served %g + lost %g + backlog %g", arrived, served, lost, final)
			}
		})
	}
}
