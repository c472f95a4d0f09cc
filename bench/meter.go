package main

import (
	"math"
	"time"
)

// The meter says how much the box's neighbours are slowing this process
// down right now. Its chunk is ~0.25 ms of fixed work — dense row
// operations on a cache-resident matrix and a strided walk through memory
// that is not, the two things a plan is made of — that calls no code of
// the program, so no change to the program can move it. A chunk is short
// enough that some run of it goes undisturbed, so its floor over a run is
// the box's quiet speed, and mean ÷ floor over a stretch of time is the
// slowdown then.
//
// Only set-up times are scaled by it: a set-up is one long step repeated
// a few times, so it has no floor of its own to take (see floors), and
// its raw time moved by 47 % between two quarter-hours on the box this
// was built on. The timed operations need no meter.
const (
	meterN     = 80      // matrix order: 51 kB, cache-resident
	meterWalk  = 1 << 18 // 2 MB of float64: larger than L2
	meterBurst = 40      // chunks per reading, ~10 ms
)

type meter struct {
	mat   [meterN][meterN]float64
	buf   []float64
	sink  float64
	floor time.Duration
	sum   time.Duration
	n     int
}

func newMeter() *meter {
	return &meter{buf: make([]float64, meterWalk), floor: math.MaxInt64}
}

func (m *meter) chunk() {
	start := time.Now()
	for i := range m.mat {
		for j := range m.mat[i] {
			m.mat[i][j] = float64((i*31+j*17)%97) + 1
		}
		m.mat[i][i] += 1000
	}
	for p := 0; p < meterN/2; p++ {
		piv := m.mat[p][p]
		for r := 0; r < meterN; r++ {
			if r == p {
				continue
			}
			f := m.mat[r][p] / piv
			row, prow := &m.mat[r], &m.mat[p]
			for c := 0; c < meterN; c++ {
				row[c] -= f * prow[c]
			}
		}
	}
	sum := m.mat[meterN-1][meterN-1]
	for i := 0; i < len(m.buf); i += 8 { // one touch per cache line
		m.buf[i] += 1
		sum += m.buf[i]
	}
	m.sink = sum
	d := time.Since(start)
	m.floor = min(m.floor, d)
	m.sum += d
	m.n++
}

// read takes one reading.
func (m *meter) read() {
	for i := 0; i < meterBurst; i++ {
		m.chunk()
	}
}

// slowdown is mean chunk time ÷ quietest chunk time over every reading
// taken: 1 on a box left alone.
func (m *meter) slowdown() float64 {
	if m.n == 0 {
		return 1
	}
	return float64(m.sum) / float64(m.n) / float64(m.floor)
}
