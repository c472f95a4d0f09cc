package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// determinismInputs is the seed battery for the parallel-vs-serial
// equivalence suite: the fixed fixtures plus a couple of random systems.
func determinismInputs() []struct {
	name string
	in   *Input
} {
	battery := []struct {
		name string
		in   *Input
	}{
		{"one-dc", &Input{Sys: oneDCSystem(), Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}},
		{"two-dc", &Input{Sys: twoDCSystem(), Arrivals: [][]float64{{200}}, Prices: []float64{0.1, 0.05}}},
		{"multi-level", &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}},
	}
	for _, seed := range []int64{5, 11} {
		_, in := randomSystem(rand.New(rand.NewSource(seed)))
		battery = append(battery, struct {
			name string
			in   *Input
		}{fmt.Sprintf("random-%d", seed), in})
	}
	return battery
}

// levelSpace counts the level-assignment space of an input, to keep the
// exhaustive strategies off the largest random systems.
func levelSpace(in *Input) float64 {
	space := 1.0
	for k := 0; k < in.Sys.K(); k++ {
		for l := 0; l < in.Sys.L(); l++ {
			space *= float64(in.Sys.Classes[k].TUF.NumLevels())
		}
	}
	return space
}

// TestParallelPlansBitIdentical is the determinism suite of the parallel
// plan-search engine: for every planner strategy and every Parallelism
// in {1, 4, NumCPU}, the committed plan — objective, rates, phi,
// servers-on — must be bit-identical to the Parallelism=0 legacy serial
// plan on every input of the seed battery.
func TestParallelPlansBitIdentical(t *testing.T) {
	planners := []struct {
		name      string
		make      func(par int) Planner
		exhaustve bool // enumerates the full level space
	}{
		{"optimized", func(p int) Planner { o := NewOptimized(); o.Parallelism = p; return o }, false},
		{"optimized/per-server", func(p int) Planner {
			o := NewOptimized()
			o.PerServer = true
			o.Parallelism = p
			return o
		}, false},
		{"optimized/floors", func(p int) Planner {
			o := NewOptimized()
			o.MinCompletion = []float64{0.3}
			o.Parallelism = p
			return o
		}, false},
		{"level-search/exhaustive", func(p int) Planner {
			ls := NewLevelSearch()
			ls.Strategy = Exhaustive
			ls.Parallelism = p
			return ls
		}, true},
		{"level-search/greedy", func(p int) Planner {
			ls := NewLevelSearch()
			ls.Strategy = Greedy
			ls.Parallelism = p
			return ls
		}, false},
		{"level-search/branch-bound", func(p int) Planner {
			ls := NewLevelSearch()
			ls.Strategy = BranchBound
			ls.Parallelism = p
			return ls
		}, true},
		{"level-search/auto", func(p int) Planner {
			ls := NewLevelSearch()
			ls.Parallelism = p
			return ls
		}, false},
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	for _, tc := range determinismInputs() {
		for _, pl := range planners {
			if pl.exhaustve && levelSpace(tc.in) > 512 {
				continue
			}
			t.Run(tc.name+"/"+pl.name, func(t *testing.T) {
				serial, serr := pl.make(0).Plan(tc.in)
				for _, par := range parallelisms {
					got, gerr := pl.make(par).Plan(tc.in)
					if (serr == nil) != (gerr == nil) {
						t.Fatalf("parallelism %d: error mismatch: serial=%v parallel=%v", par, serr, gerr)
					}
					if serr != nil {
						continue
					}
					if got.Objective != serial.Objective {
						t.Fatalf("parallelism %d: objective %v != serial %v", par, got.Objective, serial.Objective)
					}
					if !reflect.DeepEqual(got.Rate, serial.Rate) {
						t.Fatalf("parallelism %d: rates differ from serial", par)
					}
					if !reflect.DeepEqual(got.Phi, serial.Phi) {
						t.Fatalf("parallelism %d: phi differs from serial", par)
					}
					if !reflect.DeepEqual(got.ServersOn, serial.ServersOn) {
						t.Fatalf("parallelism %d: servers-on %v != serial %v", par, got.ServersOn, serial.ServersOn)
					}
				}
			})
		}
	}
}

// TestMemoCacheHits proves the subset-LP cache actually fires on the
// redundant solves the searches generate — for the refine search, the
// moves a converged pass asks for again beside the same incumbent — and
// that the planner reports its counters through Stats.
func TestMemoCacheHits(t *testing.T) {
	o, in := refineSlotBusy()
	o.Parallelism = 1
	mustPlan(t, o, in)
	if o.Stats.Solves == 0 {
		t.Fatal("engine reported no LP solves")
	}
	if o.Stats.CacheHits == 0 {
		t.Fatal("subset cache never hit during the refine search")
	}

	in = &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	ls := NewLevelSearch()
	ls.Strategy = BranchBound
	ls.Parallelism = 1
	ls.Stats = &SearchStats{}
	mustPlan(t, ls, in)
	if ls.Stats.CacheHits == 0 {
		t.Fatal("subset cache never hit during branch-and-bound")
	}
}

// TestCacheKeySeparatesRelaxations guards the packed cache key's core
// invariant: a commodity is identified by (k, q, l) because utility and
// deadline are functions of (k, q) through the class TUF. The one
// producer of off-ladder combinations — branch-and-bound's relaxation,
// which pairs max utility with the loosest deadline — must therefore
// carry the NumLevels sentinel, never a real level, or its cache
// entries would be conflated with the real level-0 solves of the same
// pairs within one Plan call.
func TestCacheKeySeparatesRelaxations(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	cls := in.Sys.Classes[0].TUF
	if cls.Deadline() == cls.Level(0).Deadline {
		t.Fatal("fixture must have a loosest deadline distinct from level 0")
	}
	real := []commodity{{k: 0, q: 0, l: 0, utility: cls.Level(0).Utility, deadline: cls.Level(0).Deadline}}
	relax := []commodity{{k: 0, q: cls.NumLevels(), l: 0, utility: cls.MaxUtility(), deadline: cls.Deadline()}}
	if cacheKey(real, nil, 0) == cacheKey(relax, nil, 0) {
		t.Fatal("relaxation commodity shares a cache key with the real level-0 commodity")
	}
}

// TestParallelismZeroIsOne: Parallelism 0 and 1 are the same setting —
// one worker over the memo cache — warm or cold: the same plan from the
// same number of solves and cache hits, slot after slot.
func TestParallelismZeroIsOne(t *testing.T) {
	_, in := refineSlotBusy()
	for _, warm := range []bool{false, true} {
		var planners [2]*Optimized
		for par := range planners {
			planners[par] = NewOptimized()
			planners[par].WarmStart = warm
			planners[par].Parallelism = par
			planners[par].Stats = &SearchStats{}
		}
		for slot := 0; slot < 3; slot++ {
			p0, p1 := mustPlan(t, planners[0], in), mustPlan(t, planners[1], in)
			if !reflect.DeepEqual(p0, p1) {
				t.Fatalf("warm=%v slot %d: Parallelism 0 and 1 committed different plans", warm, slot)
			}
			s0, s1 := *planners[0].Stats, *planners[1].Stats
			if s0 != s1 || s0.Solves == 0 || s0.CacheHits == 0 {
				t.Fatalf("warm=%v slot %d: stats differ or engine idle: %+v vs %+v", warm, slot, s0, s1)
			}
		}
	}
}

// TestStatsLiveWhenWarmSerial: the engine's stats are live at
// Parallelism=0, and the warm counters show the cold first slot and the
// warm-started second.
func TestStatsLiveWhenWarmSerial(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	o := NewOptimized()
	o.Stats = &SearchStats{}
	mustPlan(t, o, in)
	if o.Stats.Solves == 0 {
		t.Fatalf("WarmStart must engage the engine at Parallelism=0, got stats %+v", *o.Stats)
	}
	if o.Stats.ColdPivots == 0 {
		t.Fatalf("first Plan of a fresh planner solves cold, got stats %+v", *o.Stats)
	}
	// The second slot re-solves from the first slot's exported basis.
	mustPlan(t, o, in)
	if o.Stats.WarmHits == 0 {
		t.Fatalf("second Plan must warm-start, got stats %+v", *o.Stats)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := mapOrdered(workers, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapOrderedLowestErrorWins(t *testing.T) {
	boom3 := errors.New("boom 3")
	boom7 := errors.New("boom 7")
	for _, workers := range []int{1, 4} {
		_, err := mapOrdered(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, boom3
			case 7:
				return 0, boom7
			default:
				return i, nil
			}
		})
		if err != boom3 {
			t.Fatalf("workers=%d: want lowest-index error %v, got %v", workers, boom3, err)
		}
	}
}

// TestSpeculativePassBatchInvariant: the accept sequence of a
// first-improvement pass must not depend on the worker count.
func TestSpeculativePassBatchInvariant(t *testing.T) {
	vals := []float64{1, 5, 2, 9, 3, 9.5, 0.5, 12, 11, 13}
	run := func(workers int) []int {
		state := 4.0
		var accepts []int
		for {
			improved, err := speculativePass(workers, len(vals),
				func(i int) (assignment, error) {
					// Pure function of (state, i), like a subset solve.
					return assignment{obj: vals[i] - state}, nil
				},
				func(i int, a assignment) bool {
					if a.obj <= 1e-9 {
						return false
					}
					state = vals[i]
					accepts = append(accepts, i)
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			if !improved {
				return accepts
			}
		}
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: accept sequence %v != serial %v", workers, got, want)
		}
	}
}

func TestAtomicFloatRaise(t *testing.T) {
	f := newAtomicFloat(-1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.raise(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := f.load(); got != 7999 {
		t.Fatalf("raise lost the maximum: got %v", got)
	}
	f.raise(5)
	if got := f.load(); got != 7999 {
		t.Fatalf("raise went backwards: got %v", got)
	}
}

// TestMapOrderedWorkerPanicBecomesError guards the panic-recovery
// contract of the worker pool: a panic inside fn on a worker goroutine
// must surface as an error from mapOrdered — attributed to the lowest
// failing index — instead of crashing the process. Run with -race.
func TestMapOrderedWorkerPanicBecomesError(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			const n = 32
			_, err := mapOrdered(workers, n, func(i int) (int, error) {
				if i%7 == 3 {
					panic(fmt.Sprintf("worker blew up at %d", i))
				}
				if i == 5 {
					return 0, errors.New("plain failure at 5")
				}
				return i * i, nil
			})
			if err == nil {
				t.Fatal("panic in worker was swallowed")
			}
			// Lowest failing index is 3 (the first panic), so the
			// surfaced error must be the recovered panic, not the plain
			// error at index 5 — regardless of goroutine scheduling.
			if !strings.Contains(err.Error(), "index 3") || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("error = %v, want recovered panic at index 3", err)
			}
		})
	}
}
