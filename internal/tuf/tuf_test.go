package tuf

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func twoLevel(t *testing.T) *StepDownward {
	t.Helper()
	s, err := New([]Level{{Utility: 10, Deadline: 1}, {Utility: 4, Deadline: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstant(t *testing.T) {
	s, err := Constant(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLevels() != 1 || s.Deadline() != 0.5 || s.MaxUtility() != 10 {
		t.Fatalf("unexpected: %v", s)
	}
	if s.Utility(0.25) != 10 || s.Utility(0.5) != 10 || s.Utility(0.6) != 0 {
		t.Fatal("constant TUF evaluation wrong")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []Level
		err    error
	}{
		{"empty", nil, ErrNoLevels},
		{"zero utility", []Level{{0, 1}}, ErrNonPositiveValue},
		{"zero deadline", []Level{{5, 0}}, ErrNonPositiveValue},
		{"utility not decreasing", []Level{{5, 1}, {5, 2}}, ErrUtilityOrder},
		{"utility increasing", []Level{{5, 1}, {6, 2}}, ErrUtilityOrder},
		{"duplicate deadline", []Level{{5, 1}, {4, 1}}, ErrDeadlineOrder},
	}
	for _, c := range cases {
		_, err := New(c.levels)
		if err == nil || !strings.Contains(err.Error(), c.err.Error()) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.err)
		}
	}
}

func TestNewSortsLevels(t *testing.T) {
	s, err := New([]Level{{Utility: 4, Deadline: 2}, {Utility: 10, Deadline: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Level(0).Utility != 10 || s.Level(1).Utility != 4 {
		t.Fatalf("levels not sorted: %v", s.Levels())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(nil)
}

func TestUtilityBrackets(t *testing.T) {
	s := twoLevel(t)
	cases := []struct {
		r, want float64
	}{
		{-1, 10}, {0, 10}, {0.5, 10}, {1, 10}, // 0 < R ≤ D1 → U1
		{1.0000001, 4}, {1.5, 4}, {2, 4}, // D1 < R ≤ D2 → U2
		{2.0000001, 0}, {100, 0}, // beyond final deadline
	}
	for _, c := range cases {
		if got := s.Utility(c.r); got != c.want {
			t.Errorf("Utility(%g) = %g, want %g", c.r, got, c.want)
		}
	}
}

func TestLevelIndex(t *testing.T) {
	s := twoLevel(t)
	if s.LevelIndex(0.5) != 0 || s.LevelIndex(1.5) != 1 || s.LevelIndex(3) != -1 {
		t.Fatal("LevelIndex wrong")
	}
	if s.LevelIndex(0) != 0 {
		t.Fatal("LevelIndex(0) should be the first level")
	}
}

func TestLevelsReturnsCopy(t *testing.T) {
	s := twoLevel(t)
	ls := s.Levels()
	ls[0].Utility = 999
	if s.Level(0).Utility != 10 {
		t.Fatal("Levels leaked internal state")
	}
}

func TestString(t *testing.T) {
	s := twoLevel(t)
	if got := s.String(); got != "TUF{$10≤1, $4≤2}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Utility is non-increasing in delay for random valid TUFs.
func TestUtilityNonIncreasingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		levels := make([]Level, n)
		d, u := 0.0, 100.0
		for i := range levels {
			d += 0.1 + rng.Float64()
			u -= 1 + rng.Float64()*10
			if u <= 0 {
				u = 0.5 / float64(i+1)
			}
			levels[i] = Level{Utility: u, Deadline: d}
		}
		// Utilities may have collided at the fallback; skip invalid sets.
		s, err := New(levels)
		if err != nil {
			return true
		}
		prev := math.Inf(1)
		for r := 0.01; r < d+1; r += 0.05 {
			cur := s.Utility(r)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
