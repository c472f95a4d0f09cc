package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"profitlb/internal/config"
	"profitlb/internal/core"
	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

// cmdReplay re-plans one recorded slot: it rebuilds the slot's input from
// a `simulate -trace` file (sim.DecodeInputs), plans it on a fresh planner
// — the one that ran the slot, or -planner's — and prints the replayed
// objective beside the committed one and their relative difference. The
// trace file comes first, before the flags.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	slot := fs.Int("slot", 0, "the slot to replay, numbered as the trace numbers it")
	plannerArg := fs.String("planner", "", "planner to replay on, by its scenario name (default: the primary planner that ran the slot)")
	var path string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		path, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" || fs.NArg() > 0 {
		return errors.New("replay takes one trace file, before its flags")
	}
	events, err := readTrace(path)
	if err != nil {
		return err
	}
	inputs, err := sim.DecodeInputs(events)
	if err != nil {
		return err
	}
	var in *core.Input
	for _, x := range inputs {
		if x.Slot == *slot {
			in = x
			break
		}
	}
	var committed *obs.Event
	for i := range events {
		if events[i].Kind == obs.KindPlanCommitted && events[i].Slot == *slot {
			committed = &events[i]
			break
		}
	}
	if in == nil || committed == nil {
		return fmt.Errorf("trace %s records no input or no committed plan for slot %d", path, *slot)
	}
	z, ok := committed.Values["objective"]
	if !ok {
		return fmt.Errorf("trace %s: slot %d's plan-committed event carries no objective", path, *slot)
	}
	name := *plannerArg
	if name == "" {
		name = strings.TrimPrefix(committed.Planner, "resilient/")
	}
	p, err := (&config.Scenario{Planner: name}).BuildPlanner()
	if err != nil {
		return err
	}
	plan, err := p.Plan(in)
	if err != nil {
		return fmt.Errorf("slot %d on %s: %w", *slot, name, err)
	}
	fmt.Printf("slot %d on %s (committed by %s, tier %d)\n", *slot, p.Name(), committed.Planner, committed.Tier)
	fmt.Printf("replayed objective   %.17g\n", plan.Objective)
	fmt.Printf("committed objective  %.17g\n", z)
	fmt.Printf("relative difference  %.3g\n", math.Abs(plan.Objective-z)/math.Max(1, math.Abs(z)))
	return nil
}

// readTrace decodes a JSON-lines trace file into its events.
func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []obs.Event
	dec := json.NewDecoder(f)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace %s: event %d: %w", path, len(events)+1, err)
		}
		events = append(events, ev)
	}
}
