package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of the sample by
// the nearest-rank rule on a sorted copy; 0 for an empty sample. It is
// the benchmark's own rather than internal/stats.Percentile so that no
// change to the program can move the yardstick's arithmetic.
func percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the even-length midpoint rule, so a
// median of medians does not lean on one sample.
func median(sample []float64) float64 {
	n := len(sample)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method) — the rule the benchmark contract states its spreads in.
func quartiles(sample []float64) (q1, q2, q3 float64) {
	n := len(sample)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return sample[0], sample[0], sample[0]
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// clockTicks is the kernel's USER_HZ; Linux fixes it at 100 on every
// architecture Go supports, and /proc/<pid>/stat counts CPU time in it.
const clockTicks = 100

// parseProcStat extracts user and system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (user, sys float64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(ut) / clockTicks, float64(st) / clockTicks, nil
}

// procCPU reads a process's cumulative user and system CPU seconds.
func procCPU(pid int) (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(data)
}

// parseVmHWM extracts the peak resident set size, in MB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(data []byte) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procPeakRSS reads a process's peak resident set size in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// envStamp identifies where and on what a result was measured. It is
// attached to every result file and history line: a number without it
// cannot be compared with anything.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func newEnvStamp(root string, seed int64) envStamp {
	st := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       seed,
	}
	// Best effort: the driver's checkout is not a git repository.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					st.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return st
}

func (st envStamp) String() string {
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d",
		st.Commit, st.GoVersion, st.GOMAXPROCS, st.NProc, st.CPUModel, st.Seed)
}
