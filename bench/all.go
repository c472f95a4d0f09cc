package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workloadResult is one workload's two runs (untraced, traced) in a pass.
type workloadResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
}

// pass is one run of the whole suite.
type pass struct {
	Order     []string                   `json:"order"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultFile is what -all writes and compare reads. The stamp travels
// with the numbers.
type resultFile struct {
	Env     envStamp `json:"env"`
	Time    string   `json:"time"`
	Seconds float64  `json:"seconds"`
	Passes  []pass   `json:"passes"`
}

// historyLine is one -all run in the append-only bench/history.jsonl:
// the stamp plus, per workload, the median over passes of every
// end-to-end metric.
type historyLine struct {
	Env      envStamp                      `json:"env"`
	Time     string                        `json:"time"`
	Seconds  float64                       `json:"seconds"`
	Passes   int                           `json:"passes"`
	EndToEnd map[string]map[string]float64 `json:"end_to_end"`
}

// runChild runs one workload in a child process — so its peak RSS and
// heap are its own — and parses the contract line it ends with.
func runChild(root, workload string, seed int64, seconds float64, trace, smoke bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", t}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s (trace %s): no result line (%v): %v", workload, t, runErr, err)
	}
	return &rep, nil
}

// runAll is the -all mode. It returns the process exit code.
func runAll(root string, spec *benchSpec, seed int64, seconds float64, smoke bool, repeat int, out string) int {
	env := newEnvStamp(root, seed)
	fmt.Printf("# %s\n# seconds=%v passes=%d\n", env, seconds, repeat)
	file := resultFile{Env: env, Time: time.Now().UTC().Format(time.RFC3339), Seconds: seconds}
	ok := true
	for p := 0; p < repeat; p++ {
		order := make([]string, len(workloads))
		for i, w := range workloads {
			// Alternate the launch order so no workload always runs on
			// the box its predecessor left behind.
			if p%2 == 0 {
				order[i] = w.name
			} else {
				order[len(workloads)-1-i] = w.name
			}
		}
		ps := pass{Order: order, Workloads: map[string]*workloadResult{}}
		for _, name := range order {
			plain, err := runChild(root, name, seed, seconds, false, smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			traced, err := runChild(root, name, seed, seconds, true, smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			wr := &workloadResult{
				Correct:   plain.Correct && traced.Correct,
				Attempted: plain.Attempted, Failed: plain.Failed,
				EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
			}
			ps.Workloads[name] = wr
			ok = ok && wr.Correct
			fmt.Printf("# pass %d %s correct=%v attempted=%d failed=%d\n", p+1, name, wr.Correct, wr.Attempted, wr.Failed)
			printMetrics(os.Stdout, name, wr.EndToEnd, wr.Attempted)
			printMetrics(os.Stdout, name, wr.PerLayer, traced.Attempted)
		}
		file.Passes = append(file.Passes, ps)
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", "result.json")
	}
	if err := writeJSON(out, &file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", out)
	if !smoke {
		if err := appendHistory(filepath.Join(root, "bench", "history.jsonl"), spec, &file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendHistory adds the run to bench/history.jsonl; the file is only
// ever appended to, so the trajectory survives every later run.
func appendHistory(path string, spec *benchSpec, file *resultFile) error {
	line := historyLine{Env: file.Env, Time: file.Time, Seconds: file.Seconds, Passes: len(file.Passes),
		EndToEnd: map[string]map[string]float64{}}
	for _, w := range workloads {
		line.EndToEnd[w.name] = map[string]float64{}
		for _, ms := range spec.EndToEnd {
			line.EndToEnd[w.name][ms.Name] = median(file.values(w.name, ms.Name))
		}
	}
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// values collects one end-to-end metric of one workload across passes.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, p := range f.Passes {
		if wr := p.Workloads[workload]; wr != nil {
			if m, ok := wr.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
