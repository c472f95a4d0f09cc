// Package workload generates and manipulates the request-arrival traces
// the paper evaluates on.
//
// The dispatcher is time-slotted and consumes only the *average arrival
// rate per type per front-end per slot* (paper Section III: "our approach
// periodically runs at the beginning of each time slot T based on the
// average arrival rates during a slot"). A Trace therefore stores a matrix
// of rates; Poisson sampling utilities are provided for examples that want
// realized arrival counts.
//
// The paper's real traces (1998 World Cup site logs, 2010 Google cluster
// data) are replaced by seeded generators of the same qualitative shape:
// WorldCupLike produces a strongly diurnal series with flash-crowd spikes,
// GoogleLike a short, bursty, lognormally modulated series. Both are
// deterministic in the seed. The paper derives its multiple request types
// by time-shifting a single trace; ShiftTypes reproduces that.
package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Trace holds arrival rates for one front-end server: Rates[slot][k] is
// the average arrival rate of type-k requests during the slot, in requests
// per unit time (the unit must match the service rates μ used alongside).
type Trace struct {
	Name  string
	Rates [][]float64
}

// Validation errors.
var (
	ErrEmptyTrace  = errors.New("workload: trace has no slots")
	ErrRaggedTrace = errors.New("workload: slots disagree on type count")
)

// Validate checks shape and non-negativity.
func (t *Trace) Validate() error {
	if len(t.Rates) == 0 {
		return ErrEmptyTrace
	}
	k := len(t.Rates[0])
	for s, row := range t.Rates {
		if len(row) != k {
			return fmt.Errorf("%w: slot %d has %d types, slot 0 has %d", ErrRaggedTrace, s, len(row), k)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("workload: trace %q slot %d type %d invalid rate %g", t.Name, s, j, v)
			}
		}
	}
	return nil
}

// Slots returns the number of time slots.
func (t *Trace) Slots() int { return len(t.Rates) }

// Types returns the number of request types (0 for an empty trace).
func (t *Trace) Types() int {
	if len(t.Rates) == 0 {
		return 0
	}
	return len(t.Rates[0])
}

// At returns the rate of type k during slot s, wrapping slots so traces
// repeat (a 24-slot trace repeats daily).
func (t *Trace) At(s, k int) float64 {
	n := len(t.Rates)
	i := s % n
	if i < 0 {
		i += n
	}
	return t.Rates[i][k]
}

// Total returns the sum over types of the rates in slot s.
func (t *Trace) Total(s int) float64 {
	var sum float64
	for k := 0; k < t.Types(); k++ {
		sum += t.At(s, k)
	}
	return sum
}

// Scale multiplies every rate by f and returns the receiver for chaining.
func (t *Trace) Scale(f float64) *Trace {
	for _, row := range t.Rates {
		for j := range row {
			row[j] *= f
		}
	}
	return t
}

// Constant builds a trace with the same per-type rates in every slot,
// matching the synthetic arrival sets of paper Table II.
func Constant(name string, rates []float64, slots int) *Trace {
	t := &Trace{Name: name, Rates: make([][]float64, slots)}
	for s := range t.Rates {
		row := make([]float64, len(rates))
		copy(row, rates)
		t.Rates[s] = row
	}
	return t
}

// ShiftTypes derives a K-type trace from a single base series by time
// shifting, exactly as the paper does ("we simply shifted the request
// traces at a front-end by some time units to simulate the requests of
// three different service types"). Type k is base shifted by k*shift slots.
func ShiftTypes(name string, base []float64, types, shift int) *Trace {
	n := len(base)
	t := &Trace{Name: name, Rates: make([][]float64, n)}
	for s := range t.Rates {
		row := make([]float64, types)
		for k := 0; k < types; k++ {
			idx := (s + k*shift) % n
			if idx < 0 {
				idx += n
			}
			row[k] = base[idx]
		}
		t.Rates[s] = row
	}
	return t
}

// WorldCupConfig parameterizes the World-Cup-like diurnal generator.
type WorldCupConfig struct {
	Slots int     // series length; 0 means 24
	Base  float64 // baseline rate; 0 means 500
	Seed  int64
}

// The World-Cup-like day's fixed shape.
const (
	daySwing    = 0.6  // diurnal amplitude as a fraction of Base
	peakSlot    = 15   // slot of the diurnal maximum
	burstSlot   = 19   // slot where the flash crowd is centred
	burstHeight = 1.5  // flash-crowd peak height as a multiple of Base
	slotNoise   = 0.08 // relative per-slot noise
)

// WorldCupLike produces one diurnal base series with a flash-crowd spike,
// the stand-in for the paper's 1998 World Cup access trace (Fig. 5).
func WorldCupLike(cfg WorldCupConfig) []float64 {
	if cfg.Slots <= 0 {
		cfg.Slots = 24
	}
	if cfg.Base <= 0 {
		cfg.Base = 500
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Slots)
	for s := range out {
		phase := 2 * math.Pi * (float64(s) - peakSlot) / 24
		v := cfg.Base * (1 + daySwing*math.Cos(phase))
		// Flash crowd: a narrow Gaussian bump around burstSlot.
		d := float64(s - burstSlot)
		v += cfg.Base * burstHeight * math.Exp(-d*d/2)
		v *= 1 + slotNoise*(2*rng.Float64()-1)
		if v < 0 {
			v = 0
		}
		out[s] = v
	}
	return out
}

// GoogleConfig parameterizes the Google-cluster-like generator.
type GoogleConfig struct {
	Slots int     // series length; 0 means 7 (the trace spans ~7 hours)
	Mean  float64 // mean rate; 0 means 800
	Sigma float64 // lognormal modulation sigma; 0 means 0.35
	Seed  int64
}

// GoogleLike produces a short bursty series, the stand-in for the 2010
// Google cluster task trace used in paper Section VII.
func GoogleLike(cfg GoogleConfig) []float64 {
	if cfg.Slots <= 0 {
		cfg.Slots = 7
	}
	if cfg.Mean <= 0 {
		cfg.Mean = 800
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 0.35
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Slots)
	// Lognormal multiplicative modulation with mean 1 plus a mild ramp,
	// echoing the task-submission burstiness of the original trace.
	for s := range out {
		m := math.Exp(cfg.Sigma*rng.NormFloat64() - cfg.Sigma*cfg.Sigma/2)
		ramp := 1 + 0.1*math.Sin(2*math.Pi*float64(s)/float64(cfg.Slots))
		out[s] = cfg.Mean * m * ramp
	}
	return out
}

// WriteCSV writes the trace as CSV: header "slot,type0,...", one row per
// slot.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"slot"}
	for k := 0; k < t.Types(); k++ {
		header = append(header, fmt.Sprintf("type%d", k))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for s, row := range t.Rates {
		rec := []string{strconv.Itoa(s)}
		for _, v := range row {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace previously written by WriteCSV.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading csv: %w", err)
	}
	if len(recs) < 2 {
		return nil, ErrEmptyTrace
	}
	types := len(recs[0]) - 1
	t := &Trace{Name: name}
	for _, rec := range recs[1:] {
		if len(rec) != types+1 {
			return nil, fmt.Errorf("%w: row has %d fields, want %d", ErrRaggedTrace, len(rec), types+1)
		}
		row := make([]float64, types)
		for k := 0; k < types; k++ {
			v, err := strconv.ParseFloat(rec[k+1], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: parsing rate %q: %w", rec[k+1], err)
			}
			row[k] = v
		}
		t.Rates = append(t.Rates, row)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SplitMix64 is the SplitMix64 mixer, a full-period bijection on uint64,
// through which the seeded planes (dispatch, feed, loadgen) hash a seed and
// a stream's coordinates, so a stream's draws depend on nothing run before.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
