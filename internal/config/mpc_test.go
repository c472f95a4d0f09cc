package config

import (
	"bytes"
	"strings"
	"testing"

	"profitlb/internal/mpc"
)

func TestMPCBlockRoundTripAndWiring(t *testing.T) {
	s := Example()
	s.Planner = "mpc"
	s.MPC = &mpc.Config{Horizon: 6, MaxDefer: []int{0, 3}}
	if err := s.Validate(); err != nil {
		t.Fatalf("mpc scenario invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"maxDefer"`) {
		t.Fatalf("mpc block not serialized:\n%s", buf.String())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MPC == nil || loaded.MPC.Horizon != 6 || len(loaded.MPC.MaxDefer) != 2 ||
		loaded.MPC.MaxDefer[1] != 3 {
		t.Fatalf("mpc block did not round-trip: %+v", loaded.MPC)
	}
	p, err := loaded.BuildPlanner()
	if err != nil {
		t.Fatal(err)
	}
	mp, ok := p.(*mpc.Planner)
	if !ok {
		t.Fatalf("planner %q is %T, want *mpc.Planner", p.Name(), p)
	}
	// An absent EndSlot defaults to the end of the simulated window so
	// deferred work cannot be stranded past the run.
	if got := mp.Config().EndSlot; got != loaded.StartSlot+loaded.Slots {
		t.Fatalf("EndSlot defaulted to %d, want %d", got, loaded.StartSlot+loaded.Slots)
	}
}

func TestMPCBlockValidation(t *testing.T) {
	for name, mc := range map[string]*mpc.Config{
		"negative-horizon":  {Horizon: -1},
		"negative-defer":    {Horizon: 4, MaxDefer: []int{0, -2}},
		"wrong-defer-width": {Horizon: 4, MaxDefer: []int{1, 2, 3}},
		"negative-endslot":  {Horizon: 4, EndSlot: -7},
	} {
		t.Run(name, func(t *testing.T) {
			s := Example()
			s.Planner = "mpc"
			s.MPC = mc
			if err := s.Validate(); err == nil {
				t.Fatalf("invalid mpc block accepted: %+v", mc)
			}
		})
	}
	// The block is validated even when another planner would ignore it, so
	// a scenario cannot carry a silently broken mpc section.
	s := Example()
	s.MPC = &mpc.Config{Horizon: -1}
	if err := s.Validate(); err == nil {
		t.Fatal("broken mpc block accepted under a non-mpc planner")
	}
}

// TestMPCScenarioRuns executes a small deferral scenario end to end through
// the config layer and checks the deferral ledger reached the report.
func TestMPCScenarioRuns(t *testing.T) {
	s := Example()
	s.Slots = 6
	s.Planner = "mpc"
	s.MPC = &mpc.Config{Horizon: 4, MaxDefer: []int{0, 2}}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("%d slots", len(rep.Slots))
	}
	if rep.Planner != "mpc" {
		t.Fatalf("planner %q", rep.Planner)
	}
	for i, sr := range rep.Slots {
		if sr.Backlog == nil {
			t.Fatalf("slot %d: no deferral ledger", i)
		}
	}
	if got := rep.FinalBacklog(); got != 0 {
		t.Fatalf("stranded backlog %g", got)
	}
}
