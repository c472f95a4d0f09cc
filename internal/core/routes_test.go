package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/tuf"
)

// routeCase decodes a small system and slot from data: 1–4 front-ends, 1–3
// classes of 1–3 levels, 1–3 centers, random slot lengths, distances (some
// exactly zero), PUEs and prices. Each number takes two bytes, read
// cyclically, so any input decodes; ties between routes come up often,
// which is where a pass that picks one route for all is most likely to
// slip.
func routeCase(data []byte) *Input {
	at := 0
	unit := func() float64 { // in [0, 1]
		if len(data) < 2 {
			return 0.5
		}
		v := binary.LittleEndian.Uint16([]byte{data[at%len(data)], data[(at+1)%len(data)]})
		at += 2
		return float64(v) / math.MaxUint16
	}
	pick := func(n int) int { return min(n-1, int(unit()*float64(n))) }
	in := func(lo, hi float64) float64 { return lo + unit()*(hi-lo) }
	S, K, L := 1+pick(4), 1+pick(3), 1+pick(3)
	sys := &datacenter.System{SlotHours: in(0.1, 2)}
	for k := 0; k < K; k++ {
		levels := make([]tuf.Level, 1+pick(3))
		u, d := in(0.1, 50), in(0.001, 0.05)
		for q := range levels {
			levels[q] = tuf.Level{Utility: u, Deadline: d}
			u, d = u*in(0.1, 0.9), d*in(1.5, 6)
		}
		sys.Classes = append(sys.Classes, datacenter.RequestClass{TUF: tuf.MustNew(levels), TransferCostPerMile: in(0, 0.01)})
	}
	for s := 0; s < S; s++ {
		dist := make([]float64, L)
		for l := range dist {
			if unit() > 0.2 {
				dist[l] = math.Round(in(0, 3000))
			}
		}
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{DistanceMiles: dist})
	}
	prices := make([]float64, L)
	for l := range prices {
		mu, en := make([]float64, K), make([]float64, K)
		for k := range mu {
			mu[k], en[k] = in(100, 20000), in(0, 2)
		}
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Servers: 1 + pick(3), Capacity: in(0.5, 2), ServiceRate: mu, EnergyPerRequest: en, PUE: in(0.9, 2),
		})
		prices[l] = in(0, 1)
	}
	arrivals := make([][]float64, S)
	for s := range arrivals {
		arrivals[s] = make([]float64, K)
		for k := range arrivals[s] {
			arrivals[s][k] = in(0, 5000)
		}
	}
	return &Input{Sys: sys, Arrivals: arrivals, Prices: prices}
}

// checkRoutePass holds the route pass to UnitProfit bit for bit: its best
// route of every (k, q, l) is the max over front-ends of UnitProfit, and
// the dispatch LP's objective coefficient of every λ, in both layouts, is
// T·UnitProfit of its route.
func checkRoutePass(t *testing.T, in *Input) {
	t.Helper()
	sys := in.Sys
	var r routePass
	r.price(in)
	for k, c := range sys.Classes {
		for q := 0; q < c.TUF.NumLevels(); q++ {
			u := c.TUF.Level(q).Utility
			for l := range sys.Centers {
				want := math.Inf(-1)
				for s := range sys.FrontEnds {
					want = max(want, sys.UnitProfit(k, s, l, u, in.Prices[l]))
				}
				if got := r.best(k, l, u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("best route of (%d, %d, %d) is %v, max over s of UnitProfit %v", k, q, l, got, want)
				}
			}
		}
	}
	// Floors on every class admit every commodity, profitable or not.
	floors := make([]float64, sys.K())
	for k := range floors {
		floors[k] = 1
	}
	comms := r.admissible(in, floors, nil)
	for _, perServer := range []bool{false, true} {
		d := buildDispatchLP(in, comms, nil, perServer, nil)
		obj := d.model.ObjectiveCoefs()
		for ci, c := range comms {
			for j, x := range d.xVar[ci] {
				s := j % sys.S()
				want := sys.Slot() * sys.UnitProfit(c.k, s, c.l, c.utility, in.Prices[c.l])
				if math.Float64bits(obj[x]) != math.Float64bits(want) {
					t.Fatalf("per-server %v: λ of (%d, %d, %d) from %d has coefficient %v, T·UnitProfit %v", perServer, c.k, c.q, c.l, s, obj[x], want)
				}
			}
		}
	}
}

// TestRoutePassLaw runs checkRoutePass over 300 seeded random systems.
func TestRoutePassLaw(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 7))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.IntN(192))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		in := routeCase(data)
		if err := in.Validate(); err != nil {
			t.Fatalf("case %d does not validate: %v", i, err)
		}
		checkRoutePass(t, in)
	}
}

// FuzzRoutePass is TestRoutePassLaw's check on fuzzed systems.
func FuzzRoutePass(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("a route pass prices each (k, l) once, and the best route is exact"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := routeCase(data)
		if err := in.Validate(); err != nil {
			t.Skip(err)
		}
		checkRoutePass(t, in)
	})
}
