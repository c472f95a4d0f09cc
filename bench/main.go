// Command bench is the repository's one end-to-end benchmark: slot-commit
// latency, simulated-day throughput and HTTP dispatch cost, with a traced
// second pass that gives per-layer numbers. See README.md in this
// directory for the workloads, the metric tables and how to compare runs.
//
//	go run ./bench --workload W --seed S --seconds N --trace 0|1   one workload (the BENCHMARK.json contract)
//	go run ./bench -all -seed S [-repeat N] [-o FILE]               every workload, untraced then traced
//	go run ./bench compare A.json B.json                            regression / gain gate between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// workloadSpec names one workload and how to run it.
type workloadSpec struct {
	name string
	run  func(o *options) (*result, error)
}

func fleetRunner(size fleetSize) func(o *options) (*result, error) {
	return func(o *options) (*result, error) {
		return runSlotWorkload(o, func(ctl *traceCtl) slotWorkload {
			return &fleetWorkload{o: o, ctl: ctl, size: size}
		})
	}
}

// workloads is the fixed suite, in the order BENCHMARK.json lists it.
var workloads = []workloadSpec{
	{"paper-day", func(o *options) (*result, error) {
		return runSlotWorkload(o, func(ctl *traceCtl) slotWorkload { return &paperDay{o: o, ctl: ctl} })
	}},
	{"fleet-refine-mid", fleetRunner(fleetSize{K: 6, L: 10, S: 3, replicas: 4, refine: true, checkEvery: 10, maxChecks: 5})},
	{"fleet-large", fleetRunner(fleetSize{K: 20, L: 100, S: 3, replicas: 8, refine: false, checkEvery: 100, maxChecks: 5})},
	{"http-dispatch", runHTTPDispatch},
}

// options is one workload run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke sets up once and samples one slot for the cold re-plan check,
	// so tier-1 tests can drive every workload's wiring and checks in
	// seconds; its numbers mean nothing.
	smoke bool
	root  string // repository root (where go.mod and BENCHMARK.json live)
}

// outPath places a file under bench/out, the git-ignored scratch area.
func (o *options) outPath(name string) string { return filepath.Join(o.root, "bench", "out", name) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }
func (m metrics) get(name string) float64                 { return m[name].Value }

// result is what one workload run produced.
type result struct {
	attempted, failed int
	samples           int // timed operations behind the percentiles
	endToEnd          metrics
	layers            metrics
	problems          []string // violated correctness checks
}

func newResult() *result { return &result{endToEnd: metrics{}, layers: metrics{}} }

func (r *result) e2e(name string, v float64, unit string) { r.endToEnd.set(name, v, unit) }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// benchSpec is what the benchmark reads of BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The alphabets the driver that reads BENCHMARK.json allows a metric's
// name and unit: it refuses the file before a single run otherwise ("$"
// is not a unit).
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range list {
			if !metricNameRE.MatchString(ms.Name) || !metricUnitRE.MatchString(ms.Unit) {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q with unit %q is outside the driver's alphabet", ms.Name, ms.Unit)
			}
		}
	}
	return &spec, nil
}

// findRoot walks up from the working directory to the module root, so
// the command works from the checkout root (`go run ./bench`) and from
// its own directory (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module profitlb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no profitlb go.mod above the working directory")
		}
		dir = parent
	}
}

// runOne runs a single workload and fills in, with zeros, the metrics of
// the requested kind that do not apply to it: the contract wants every
// listed metric on every workload.
func runOne(o *options, spec *benchSpec) (*result, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		res, err := w.run(o)
		if err != nil {
			return nil, err
		}
		if o.trace {
			res.layers.set("fail_share", float64(res.failed)/float64(res.attempted), "ratio")
			for _, ms := range spec.PerLayer {
				if _, ok := res.layers[ms.Name]; !ok {
					res.layers.set(ms.Name, 0, ms.Unit)
				}
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// report is the last line of a contract run's standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *result) report(trace bool) report {
	m := r.endToEnd
	if trace {
		m = r.layers
	}
	return report{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// printMetrics writes `workload metric value unit` lines, sorted.
func printMetrics(w *os.File, workload string, m metrics, samples int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %v %s\n", workload, name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(w, "%s samples %d count\n", workload, samples)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload and end with the contract's JSON line")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "one set-up, one sampled check: exercises wiring and checks, measures nothing")
	all := fs.Bool("all", false, "run every workload in its own child process, untraced then traced")
	repeat := fs.Int("repeat", 1, "with -all: passes to run, alternating the workload launch order")
	out := fs.String("o", "", "with -all: result file (default bench/out/result.json)")
	_ = fs.Parse(os.Args[1:])

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *all {
		os.Exit(runAll(root, spec, *seed, *seconds, *smoke, *repeat, *out))
	}
	if *workload == "" {
		fs.Usage()
		os.Exit(2)
	}
	o := &options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, root: root}
	fmt.Printf("# %s\n", newEnvStamp(root, *seed))
	res, err := runOne(o, spec)
	if err != nil {
		fatal(err)
	}
	rep := res.report(o.trace)
	printMetrics(os.Stdout, o.workload, rep.Metrics, res.samples)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", o.workload, p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
