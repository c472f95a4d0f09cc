package fault

import (
	"strings"
	"testing"
)

func TestDriftValidate(t *testing.T) {
	bad := []struct {
		name string
		ev   Event
		want string
	}{
		{"crowd frontend oob", Event{Kind: FlashCrowd, FrontEnd: 1, Factor: 3}, "front-end"},
		{"crowd factor 1", Event{Kind: FlashCrowd, FrontEnd: 0, Factor: 1}, "burst factor > 1"},
		{"crowd factor 0", Event{Kind: FlashCrowd, FrontEnd: 0}, "burst factor > 1"},
		{"slow center oob", Event{Kind: SlowCenter, Center: 2, Factor: 0.5}, "targets center"},
		{"slow factor 0", Event{Kind: SlowCenter, Center: 0}, "factor in (0,1)"},
		{"slow factor 1", Event{Kind: SlowCenter, Center: 0, Factor: 1}, "factor in (0,1)"},
	}
	for _, c := range bad {
		sch := &Schedule{Events: []Event{c.ev}}
		err := sch.Validate(2, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want containing %q", c.name, err, c.want)
		}
	}
	good := &Schedule{Events: []Event{
		{Kind: FlashCrowd, FrontEnd: 0, Factor: 4, From: 1, To: 2},
		{Kind: SlowCenter, Center: 1, Factor: 0.4, From: 0, To: 3},
	}}
	if err := good.Validate(2, 1); err != nil {
		t.Fatalf("valid drift schedule rejected: %v", err)
	}
}

func TestDriftFactors(t *testing.T) {
	sch := &Schedule{Events: []Event{
		{Kind: FlashCrowd, FrontEnd: 0, Factor: 3, From: 1, To: 2},
		{Kind: FlashCrowd, FrontEnd: 0, Factor: 5, From: 2, To: 2},
		{Kind: SlowCenter, Center: 1, Factor: 0.5, From: 1, To: 3},
		{Kind: SlowCenter, Center: 1, Factor: 0.25, From: 2, To: 2},
	}}
	if got := sch.FlashCrowdFactor(0, 0); got != 1 {
		t.Errorf("pre-crowd factor = %g, want 1", got)
	}
	if got := sch.FlashCrowdFactor(0, 1); got != 3 {
		t.Errorf("crowd slot 1 factor = %g, want 3", got)
	}
	if got := sch.FlashCrowdFactor(0, 2); got != 5 {
		t.Errorf("overlapping crowd factor = %g, want worst 5", got)
	}
	if got := sch.FlashCrowdFactor(1, 1); got != 1 {
		t.Errorf("untargeted front-end factor = %g, want 1", got)
	}
	if got := sch.SlowCenterFactor(1, 1); got != 0.5 {
		t.Errorf("slow slot 1 factor = %g, want 0.5", got)
	}
	if got := sch.SlowCenterFactor(1, 2); got != 0.25 {
		t.Errorf("overlapping sag factor = %g, want deepest 0.25", got)
	}
	if got := sch.SlowCenterFactor(0, 2); got != 1 {
		t.Errorf("untargeted center factor = %g, want 1", got)
	}
	if got := sch.CenterFactors(2, 2); len(got) != 2 || got[0] != 1 || got[1] != 0.25 {
		t.Errorf("center factors at slot 2 = %v, want [1 0.25]", got)
	}
	if got := sch.CenterFactors(2, 0); got != nil {
		t.Errorf("nominal slot center factors = %v, want nil", got)
	}
	var nilSch *Schedule
	if nilSch.FlashCrowdFactor(0, 0) != 1 || nilSch.SlowCenterFactor(0, 0) != 1 || nilSch.CenterFactors(2, 0) != nil {
		t.Error("nil schedule drift accessors not neutral")
	}
}

func TestDriftString(t *testing.T) {
	crowd := Event{Kind: FlashCrowd, FrontEnd: 2, Factor: 4, From: 1, To: 3}
	if got := crowd.String(); got != "flash-crowd(s=2,×4,slots 1-3)" {
		t.Errorf("flash-crowd String = %q", got)
	}
	slow := Event{Kind: SlowCenter, Center: 1, Factor: 0.5, From: 2, To: 2}
	if got := slow.String(); got != "slow-center(l=1,×0.5,slots 2-2)" {
		t.Errorf("slow-center String = %q", got)
	}
}
