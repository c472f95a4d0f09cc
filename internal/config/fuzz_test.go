package config

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad checks that arbitrary scenario JSON never panics the loader and
// that every scenario it accepts passes its own validation (i.e. Load is
// validated-or-error, never silently broken).
func FuzzLoad(f *testing.F) {
	var example bytes.Buffer
	if err := Example().Save(&example); err != nil {
		f.Fatal(err)
	}
	f.Add(example.String())
	f.Add(`{"name": 12`)
	f.Add(`{"name":"x","bogus":1}`)
	f.Add(`{"name":"x","slots":3}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`{"system":{"classes":null,"frontEnds":null,"centers":null}}`)
	f.Add(`{"system":{},"slots":-1}`)
	f.Add(strings.Replace(example.String(), `"Servers": 8`, `"Servers": -3`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`, `"slots": 1e9`, 1))
	// Fault schedules, valid and hostile.
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "resilient": true, "faults": {"events": [
			{"kind":"center-outage","center":1,"from":3,"to":5},
			{"kind":"price-spike","center":0,"factor":2,"from":4,"to":6},
			{"kind":"planner-error","from":7,"to":7}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"center-outage","center":99,"from":0,"to":0}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"meteor-strike","from":0,"to":0}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"center-degrade","center":0,"factor":-1,"from":5,"to":2}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": null}`, 1))
	// Feed configs, valid and hostile: the feeds block rides the same
	// decoder, so the invariant (accepted ⇒ validates ⇒ round-trips)
	// covers it too. The block keeps two keys; "ttl" stands for the
	// retired ones, which are unknown fields now.
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"seed":7,"escalateOnDark":true}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "resilient": true, "feeds": {"escalateOnDark": true},
		"faults": {"events": [{"kind":"feed-loss","feed":"price","center":0,"from":0,"to":23}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"seed": -9223372036854775808, "escalateOnDark": false}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"seed": 1.5}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"seed": 1e30}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"escalateOnDark": "yes"}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"seed": 3, "ttl": 2}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": {"bogusKnob": true}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "feeds": null`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"feed-dropout","feed":"arrival","frontEnd":9,"factor":0.5,"from":0,"to":1}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"feed-noise","feed":"volume","center":0,"factor":0.2,"from":0,"to":1}]}`, 1))
	// Dispatch blocks, valid and hostile: the online serving plane's
	// config rides the same decoder and the same accepted-⇒-validates
	// invariant.
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"slotSeconds": 30, "burst": 0.1, "minBurst": 4, "seed": 7}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"slotSeconds": 30, "frontEnds": ["us-east", "us-west"], "drainSeconds": 5}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"burst": -1}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"slotSeconds": 0}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"slotSeconds": 30, "frontEnds": ["mars"]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": {"slotSeconds": 1e308, "minBurst": 1e308}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "dispatch": null`, 1))
	// Cluster blocks, valid and hostile: fleet size bounds, the transport
	// settings, a retired key ("staleFactor"), and cluster fault events
	// that need a cluster block to bound their replica indices.
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 4}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 4, "pollWaitMs": 100, "maxAttempts": 2, "baseBackoffMs": 5, "timeoutMs": 300}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": -1}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 1000}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 2, "staleFactor": 0.5}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 4},
		"faults": {"events": [{"kind":"replica-kill","replica":2,"from":3,"to":4},
			{"kind":"replica-partition","replica":0,"from":6,"to":7},
			{"kind":"publisher-outage","from":9,"to":9}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": {"replicas": 2},
		"faults": {"events": [{"kind":"replica-kill","replica":5,"from":0,"to":0}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "faults": {"events": [{"kind":"publisher-outage","from":0,"to":0}]}`, 1))
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "cluster": null`, 1))
	// The control block is retired whole: any scenario carrying one is an
	// unknown field.
	f.Add(strings.Replace(example.String(), `"slots": 24`,
		`"slots": 24, "control": {"ticksPerSlot": 8}`, 1))
	// MPC blocks, valid and hostile: the rolling-horizon planner's window
	// and per-class deferral allowances, and a retired key ("deferMargin").
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"horizon": 4, "maxDefer": [0, 2]}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"horizon": 6, "maxDefer": [1, 3], "endSlot": 24}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"horizon": 4, "maxDefer": [0, 2], "deferMargin": 0.2}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"horizon": -2}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"maxDefer": [0, -1]}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"maxDefer": [1]}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"endSlot": -5}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": {"bogusKnob": true}`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "mpc": null`, 1))
	f.Add(strings.Replace(example.String(), `"planner": "optimized"`,
		`"planner": "mpc", "resilient": true, "mpc": {"horizon": 4, "maxDefer": [0, 2]},
		"faults": {"events": [{"kind":"planner-error","from":3,"to":3}]}`, 1))
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Load(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario its own Validate rejects: %v", err)
		}
		if _, err := s.BuildPlanner(); err != nil && !strings.Contains(err.Error(), "unknown planner") {
			t.Fatalf("accepted scenario has unbuildable planner: %v", err)
		}
		// Accepted scenarios re-encode and re-load cleanly.
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}
