package config

import (
	"bytes"
	"strings"
	"testing"
)

// loadSpliced loads the example scenario with extra JSON spliced in at
// the slots field.
func loadSpliced(t *testing.T, extra string) (*Scenario, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := Example().Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"slots": 24`, `"slots": 24, `+extra, 1)
	return Load(strings.NewReader(doc))
}

func TestClusterBlockDefaults(t *testing.T) {
	s, err := loadSpliced(t, `"cluster": {"replicas": 4}`)
	if err != nil {
		t.Fatal(err)
	}
	cc := s.ClusterConfig()
	if cc.Replicas != 4 {
		t.Fatalf("replicas = %d", cc.Replicas)
	}
	if cc.PollWaitMs != 2000 || cc.MaxAttempts != 4 || cc.BaseBackoffMs != 50 || cc.TimeoutMs != 1000 {
		t.Fatalf("defaults not applied: %+v", cc)
	}
	// No cluster block means the zero (disabled) configuration.
	s2, err := loadSpliced(t, `"startSlot": 0`)
	if err != nil {
		t.Fatal(err)
	}
	if cc := s2.ClusterConfig(); cc.Replicas != 0 {
		t.Fatalf("absent cluster block yielded %d replicas", cc.Replicas)
	}
}

func TestClusterBlockRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"negative replicas": `"cluster": {"replicas": -2}`,
		"oversized fleet":   `"cluster": {"replicas": 500}`,
		"retired key":       `"cluster": {"replicas": 2, "staleFactor": 0.5}`,
		"unknown key":       `"cluster": {"replicas": 2, "bogus": 1}`,
		"replica out of bounds": `"cluster": {"replicas": 2},
			"faults": {"events": [{"kind":"replica-kill","replica":9,"from":0,"to":0}]}`,
		"cluster faults without block": `"faults": {"events": [
			{"kind":"replica-partition","replica":0,"from":0,"to":0}]}`,
	}
	for name, extra := range cases {
		if _, err := loadSpliced(t, extra); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestClusterBlockWithFaultsValidates(t *testing.T) {
	s, err := loadSpliced(t, `"cluster": {"replicas": 3},
		"faults": {"events": [
			{"kind":"replica-kill","replica":2,"from":1,"to":2},
			{"kind":"publisher-outage","from":4,"to":4}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Faults.HasClusterFaults() {
		t.Fatal("cluster faults not recognized")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
