package config

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/resilient"
)

func TestExampleIsValidAndRuns(t *testing.T) {
	s := Example()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNetProfit() <= 0 {
		t.Fatalf("example scenario nets %g", rep.TotalNetProfit())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := Example()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.Slots != s.Slots || back.Planner != s.Planner {
		t.Fatal("scalar fields changed in round trip")
	}
	if back.System.K() != s.System.K() || back.System.L() != s.System.L() {
		t.Fatal("system shape changed")
	}
	// TUF levels survive the round trip.
	orig := s.System.Classes[1].TUF
	got := back.System.Classes[1].TUF
	if got.NumLevels() != orig.NumLevels() || got.Deadline() != orig.Deadline() {
		t.Fatalf("TUF changed: %v vs %v", got, orig)
	}
	// Named price references were resolved to the embedded tables.
	if back.Prices[0].Len() != 24 {
		t.Fatal("Houston reference not resolved")
	}
	// And the loaded scenario actually runs.
	rep, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNetProfit() <= 0 {
		t.Fatal("loaded scenario unprofitable")
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{"name": 12`,
		"unknown field": `{"name":"x","bogus":1}`,
		"no system":     `{"name":"x","slots":3}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadRejectsBadTUF(t *testing.T) {
	// Increasing utilities violate the TUF invariant; the validated
	// decode must fail.
	s := Example()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"Utility": 0.02`, `"Utility": 0.5`, 1)
	if bad == buf.String() {
		t.Fatal("replacement target not found in serialized scenario")
	}
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("expected TUF validation error")
	}
}

func TestResolvePricesUnknownLocation(t *testing.T) {
	s := Example()
	s.Prices[0].Name = "Narnia"
	s.Prices[0].Prices = nil
	if err := s.Validate(); err == nil {
		t.Fatal("unknown location accepted")
	}
}

func TestBuildPlannerNames(t *testing.T) {
	s := Example()
	names := []string{"", "optimized", "Optimized", "optimized/per-server",
		"level-search", "balanced", "nearest", "greedy-profit", "random", "mpc"}
	for _, n := range names {
		s.Planner = n
		if _, err := s.BuildPlanner(); err != nil {
			t.Errorf("planner %q: %v", n, err)
		}
	}
	s.Planner = "quantum"
	if _, err := s.BuildPlanner(); !errors.Is(err, ErrUnknownPlanner) {
		t.Fatal("unknown planner accepted")
	}
}

func TestRunUnknownPlanner(t *testing.T) {
	s := Example()
	s.Planner = "quantum"
	if _, err := s.Run(); !errors.Is(err, ErrUnknownPlanner) {
		t.Fatal("Run accepted unknown planner")
	}
}

func TestFaultsRoundTripAndWiring(t *testing.T) {
	s := Example()
	s.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 3, To: 5},
		{Kind: fault.PriceSpike, Center: 0, Factor: 2, From: 4, To: 6},
		{Kind: fault.PlannerError, From: 7, To: 7},
	}}
	s.Resilient = true
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Faults, s.Faults) {
		t.Fatalf("faults changed in round trip:\n%+v\n%+v", back.Faults, s.Faults)
	}
	if !back.Resilient {
		t.Fatal("resilient flag lost")
	}
	// Faults imply graceful degradation in the sim config.
	if !back.SimConfig().DegradeOnFailure {
		t.Fatal("faulted scenario does not degrade on failure")
	}
	// Planner faults imply injector + resilient chain wrapping.
	p, err := back.BuildPlanner()
	if err != nil {
		t.Fatal(err)
	}
	chain, ok := p.(*resilient.Chain)
	if !ok {
		t.Fatalf("planner is %T, want *resilient.Chain", p)
	}
	if _, ok := chain.Tiers[0].(*fault.Injector); !ok {
		t.Fatalf("primary tier is %T, want *fault.Injector", chain.Tiers[0])
	}
	if chain.Timeout <= 0 {
		t.Fatal("chain under planner faults has no deadline")
	}
	// The full faulted scenario survives its horizon.
	rep, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != back.Slots {
		t.Fatalf("faulted horizon stopped at %d of %d slots", len(rep.Slots), back.Slots)
	}
	if rep.DegradedSlots() == 0 {
		t.Fatal("injected planner error never degraded a slot")
	}
}

func TestFaultTargetValidation(t *testing.T) {
	s := Example()
	s.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 9, From: 0, To: 0},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("out-of-range fault center accepted")
	}
}

func TestResilientAloneWrapsWithoutInjector(t *testing.T) {
	s := Example()
	s.Resilient = true
	p, err := s.BuildPlanner()
	if err != nil {
		t.Fatal(err)
	}
	chain, ok := p.(*resilient.Chain)
	if !ok {
		t.Fatalf("planner is %T, want *resilient.Chain", p)
	}
	if _, isInj := chain.Tiers[0].(*fault.Injector); isInj {
		t.Fatal("no planner faults, yet primary tier is an injector")
	}
	if chain.Timeout != 0 {
		t.Fatal("deadline set without planner faults — risks spurious timeouts")
	}
}

func TestWarmStartRoundTripAndWiring(t *testing.T) {
	s := Example()
	// Absent: planner defaults apply (warm on).
	p, err := s.BuildPlanner()
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := p.(*core.Optimized); !ok || !o.WarmStart {
		t.Fatalf("default planner %T should have WarmStart on", p)
	}

	off := false
	s.WarmStart = &off
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.WarmStart == nil || *back.WarmStart {
		t.Fatal("warmStart=false lost in round trip")
	}
	for _, name := range []string{"", "optimized/per-server"} {
		back.Planner = name
		p, err := back.BuildPlanner()
		if err != nil {
			t.Fatal(err)
		}
		if o, ok := p.(*core.Optimized); !ok || o.WarmStart {
			t.Fatalf("planner %q: %T with WarmStart not forced off", name, p)
		}
	}
	back.Planner = "level-search"
	p, err = back.BuildPlanner()
	if err != nil {
		t.Fatal(err)
	}
	if ls, ok := p.(*core.LevelSearch); !ok || ls.WarmStart {
		t.Fatalf("level-search: %T with WarmStart not forced off", p)
	}
	// Baselines ignore the knob.
	back.Planner = "nearest"
	if _, err := back.BuildPlanner(); err != nil {
		t.Fatal(err)
	}
}
