// Package tuf implements the time utility functions (TUFs) of the paper
// and the transformation of step-downward TUFs into a big-M constraint
// series (paper Section IV, Eqs. 11–26).
//
// A TUF maps the expected delay R of a request type to the profit the
// provider earns per served request. The paper restricts attention to
// non-increasing TUFs and shows that the multi-level step-downward family
// is universal for its purposes: a constant TUF is a one-step function and
// any monotonic non-increasing TUF is the limit of many small steps.
package tuf

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// Level is one step of a step-downward TUF: requests finished with expected
// delay in (previous deadline, Deadline] earn Utility.
type Level struct {
	Utility  float64 // U_{k,q}, dollars per request
	Deadline float64 // D_{k,q}, the sub-deadline up to which Utility applies
}

// StepDownward is a multi-level step-downward TUF (paper Fig. 3(c)).
// Levels are ordered by strictly increasing deadline and strictly
// decreasing utility; delay beyond the final deadline earns zero.
type StepDownward struct {
	levels []Level
}

// Validation errors returned by New.
var (
	ErrNoLevels         = errors.New("tuf: at least one level is required")
	ErrUtilityOrder     = errors.New("tuf: utilities must be strictly decreasing")
	ErrDeadlineOrder    = errors.New("tuf: deadlines must be strictly increasing")
	ErrNonPositiveValue = errors.New("tuf: utilities and deadlines must be positive")
)

// New builds a validated step-downward TUF from levels. The input slice is
// copied and may be in any order; it is sorted by deadline.
func New(levels []Level) (*StepDownward, error) {
	if len(levels) == 0 {
		return nil, ErrNoLevels
	}
	ls := make([]Level, len(levels))
	copy(ls, levels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Deadline < ls[j].Deadline })
	for i, l := range ls {
		if l.Utility <= 0 || l.Deadline <= 0 {
			return nil, fmt.Errorf("%w: level %d = %+v", ErrNonPositiveValue, i, l)
		}
		if i > 0 {
			if ls[i-1].Deadline >= l.Deadline {
				return nil, fmt.Errorf("%w: %g then %g", ErrDeadlineOrder, ls[i-1].Deadline, l.Deadline)
			}
			if ls[i-1].Utility <= l.Utility {
				return nil, fmt.Errorf("%w: %g then %g", ErrUtilityOrder, ls[i-1].Utility, l.Utility)
			}
		}
	}
	return &StepDownward{levels: ls}, nil
}

// MustNew is New for statically known level sets; it panics on error.
func MustNew(levels []Level) *StepDownward {
	s, err := New(levels)
	if err != nil {
		panic(err)
	}
	return s
}

// Constant returns the one-level TUF of paper Eq. 9: utility u before the
// deadline, zero after.
func Constant(u, deadline float64) (*StepDownward, error) {
	return New([]Level{{Utility: u, Deadline: deadline}})
}

// Levels returns a copy of the ordered level set.
func (s *StepDownward) Levels() []Level {
	out := make([]Level, len(s.levels))
	copy(out, s.levels)
	return out
}

// NumLevels returns the number of steps.
func (s *StepDownward) NumLevels() int { return len(s.levels) }

// Level returns the q-th level (0-based, ordered by deadline).
func (s *StepDownward) Level(q int) Level { return s.levels[q] }

// Deadline returns the final deadline D_k beyond which serving a request
// earns nothing (paper: "executing a request becomes meaningless once the
// delay time exceeds D_k").
func (s *StepDownward) Deadline() float64 { return s.levels[len(s.levels)-1].Deadline }

// MaxUtility returns the utility of the first (tightest) level.
func (s *StepDownward) MaxUtility() float64 { return s.levels[0].Utility }

// Utility evaluates the TUF at expected delay r (paper Eqs. 9, 10, 16).
// Delays are open at zero: r ≤ 0 is treated as "immediately served" and
// earns the maximum utility, matching the 0 < R ≤ D_1 bracket.
func (s *StepDownward) Utility(r float64) float64 {
	if r <= 0 {
		return s.levels[0].Utility
	}
	for _, l := range s.levels {
		if r <= l.Deadline {
			return l.Utility
		}
	}
	return 0
}

// LevelIndex returns the 0-based level earned at delay r, or -1 when r
// exceeds the final deadline.
func (s *StepDownward) LevelIndex(r float64) int {
	if r <= 0 {
		return 0
	}
	for q, l := range s.levels {
		if r <= l.Deadline {
			return q
		}
	}
	return -1
}

// String implements fmt.Stringer with a compact step listing.
func (s *StepDownward) String() string {
	out := "TUF{"
	for i, l := range s.levels {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("$%g≤%g", l.Utility, l.Deadline)
	}
	return out + "}"
}

// MarshalJSON encodes the TUF as its ordered level array, so systems and
// scenarios serialize cleanly.
func (s *StepDownward) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.levels)
}

// UnmarshalJSON decodes and validates a level array.
func (s *StepDownward) UnmarshalJSON(data []byte) error {
	var levels []Level
	if err := json.Unmarshal(data, &levels); err != nil {
		return fmt.Errorf("tuf: decoding levels: %w", err)
	}
	dec, err := New(levels)
	if err != nil {
		return err
	}
	s.levels = dec.levels
	return nil
}
