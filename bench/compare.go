package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is compare's judgement of one (workload, metric) pairing.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judgement carries the numbers behind a verdict; every ratio is given
// with its base (the parent's median).
type judgement struct {
	verdict            verdict
	medA, q1A, q3A     float64
	medB, q1B, q3B     float64
	worseBy            float64 // share of medA by which B is worse (negative: better)
	spreadA            float64 // IQR(A) / |medA|
	wins, losses, ties int
}

// judge applies the rules of the choosing-metrics guide to the parent's
// runs a and the change's runs b of one metric (run i of a is paired with
// run i of b):
//
//   - regression: B's median is worse than A's by more than the bound;
//   - unresolved: A's own quartile spread exceeds the bound, so the bound
//     cannot be resolved — unless every run of B beats every run of A;
//   - improved: there are at least ten pairs, B wins at least nine tenths
//     of them (ties count for neither side) and the medians differ by
//     more than A's spread.
func judge(a, b []float64, lowerIsBetter bool, bound float64) judgement {
	var j judgement
	j.q1A, j.medA, j.q3A = quartiles(a)
	j.q1B, j.medB, j.q3B = quartiles(b)
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	base := math.Abs(j.medA)
	if base == 0 {
		base = 1
	}
	j.worseBy = sign * (j.medB - j.medA) / base
	iqrA := j.q3A - j.q1A
	j.spreadA = iqrA / base
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			j.wins++
		case d > 0:
			j.losses++
		default:
			j.ties++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case j.spreadA > bound && !allBetter:
		j.verdict = verdictUnresolved
	case j.worseBy > bound:
		j.verdict = verdictRegression
	case pairs >= 10 && float64(j.wins) >= 0.9*float64(pairs) && math.Abs(j.medB-j.medA) > iqrA:
		j.verdict = verdictImproved
	default:
		j.verdict = verdictOK
	}
	return j
}

// sameSeedProfitBound replaces BENCHMARK.json's bound on
// profit_usd_per_slot when both files ran the same seed: the bound in
// the file has to absorb the difference between seeds, but on one seed
// the committed profit is a pure function of the inputs and must not
// move at all beyond solver round-off.
const sameSeedProfitBound = 1e-6

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Passes) == 0 {
		return nil, fmt.Errorf("%s: no passes", path)
	}
	return &f, nil
}

// compareMain is `bench compare A.json B.json`: A is the parent, B the
// change. It prints one row per (workload, end-to-end metric) and exits
// 1 when any pairing regressed or either side failed its checks.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json CHANGE.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("# parent: %s (%d passes, %vs)\n# change: %s (%d passes, %vs)\n",
		a.Env, len(a.Passes), a.Seconds, b.Env, len(b.Passes), b.Seconds)
	if len(a.Passes) < 10 || len(b.Passes) < 10 {
		fmt.Println("# fewer than ten pairs: verdicts are indicative only")
	}
	if a.Seconds != b.Seconds {
		fmt.Println("# run lengths differ: the two files are not comparable")
		return 2
	}
	regressed := compareFiles(os.Stdout, spec, a, b)
	if regressed {
		return 1
	}
	return 0
}

// compareFiles prints the table and reports whether anything regressed.
func compareFiles(w *os.File, spec *benchSpec, a, b *resultFile) (regressed bool) {
	fmt.Fprintf(w, "%-17s %-20s %-10s %14s %14s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "unit", "parent_med", "parent_iqr", "change_med", "change_iqr", "worse_by", "bound", "w/l/t", "verdict")
	for _, wl := range workloads {
		for _, ms := range spec.EndToEnd {
			bound := ms.Bound
			if ms.Name == "profit_usd_per_slot" && a.Env.Seed == b.Env.Seed {
				bound = sameSeedProfitBound
			}
			j := judge(a.values(wl.name, ms.Name), b.values(wl.name, ms.Name), ms.Better == "lower", bound)
			if j.verdict == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "%-17s %-20s %-10s %14.6g %14.6g %14.6g %14.6g %+8.2f%% %8.4g%% %7s  %s\n",
				wl.name, ms.Name, ms.Unit, j.medA, j.q3A-j.q1A, j.medB, j.q3B-j.q1B,
				100*j.worseBy, 100*bound, fmt.Sprintf("%d/%d/%d", j.wins, j.losses, j.ties), j.verdict)
		}
		// Failures are held to +0 absolute: no pass of either side may
		// fail an operation or a check.
		for side, f := range map[string]*resultFile{"parent": a, "change": b} {
			for i, p := range f.Passes {
				if wr := p.Workloads[wl.name]; wr != nil && (!wr.Correct || wr.Failed > 0) {
					fmt.Fprintf(w, "%-17s %s pass %d: correct=%v failed=%d of %d  %s\n",
						wl.name, side, i+1, wr.Correct, wr.Failed, wr.Attempted, verdictRegression)
					regressed = true
				}
			}
		}
	}
	return regressed
}
