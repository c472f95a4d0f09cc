package main

import (
	"fmt"
	"math"
	"math/rand"

	"profitlb/internal/datacenter"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// Every input the benchmark feeds the program is built here from the
// seed: the program under test only ever receives the generated topology,
// traces and prices. The topologies are re-implemented rather than
// imported from internal/exp or the root bench_test.go so a later change
// to either cannot move the yardstick.

// paperSystem is the paper's Section VI topology (Tables IV-VII): 3 request
// classes with one-level TUFs, 4 front-ends, 3 data centers of 6 servers.
// rateScale multiplies every service rate; the http-dispatch workload uses
// it (together with equally scaled arrivals) to change the time unit so the
// wall-clock request budget of a 2-second slot exceeds the offered load.
func paperSystem(rateScale float64) *datacenter.System {
	mu := func(perHour ...float64) []float64 {
		out := make([]float64, len(perHour))
		for i, v := range perHour {
			out[i] = v / 6 * rateScale
		}
		return out
	}
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "request1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.010}}), TransferCostPerMile: 0.003},
			{Name: "request2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.008}}), TransferCostPerMile: 0.005},
			{Name: "request3", TUF: tuf.MustNew([]tuf.Level{{Utility: 30, Deadline: 0.006}}), TransferCostPerMile: 0.007},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "frontend1", DistanceMiles: []float64{300, 1900, 700}},
			{Name: "frontend2", DistanceMiles: []float64{500, 2100, 900}},
			{Name: "frontend3", DistanceMiles: []float64{400, 2000, 600}},
			{Name: "frontend4", DistanceMiles: []float64{600, 2200, 800}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "datacenter1", Servers: 6, Capacity: 1,
				ServiceRate: mu(9000, 8400, 7200), EnergyPerRequest: []float64{0.0003, 0.0005, 0.0007}},
			{Name: "datacenter2", Servers: 6, Capacity: 1,
				ServiceRate: mu(9000, 7800, 9600), EnergyPerRequest: []float64{0.00028, 0.00052, 0.00068}},
			{Name: "datacenter3", Servers: 6, Capacity: 1,
				ServiceRate: mu(15000, 9000, 8400), EnergyPerRequest: []float64{0.00032, 0.00048, 0.00072}},
		},
	}
}

// paperConfig is one simulated day on the Section VI system: four
// World-Cup-like diurnal traces whose generator seeds derive from seed,
// time-shifted into three request types, against the embedded Houston /
// Mountain View / Atlanta price curves, with the (clean) feed layer on.
func paperConfig(seed int64, rateScale float64) sim.Config {
	sys := paperSystem(rateScale)
	traces := make([]*workload.Trace, sys.S())
	for s := range traces {
		base := workload.WorldCupLike(workload.WorldCupConfig{
			Seed: seed*1000 + 101 + int64(s), Base: (650 + 100*float64(s)) * rateScale, Slots: paperDaySlots,
		})
		traces[s] = workload.ShiftTypes(sys.FrontEnds[s].Name, base, sys.K(), 4)
	}
	return sim.Config{
		Sys: sys, Traces: traces, Prices: market.Locations(), Slots: paperDaySlots,
		Feeds: &feed.Config{}, DegradeOnFailure: true,
	}
}

// synthSystem is the large-topology construction of the root
// bench_test.go (largeTopologySystem) at a chosen size: two-level TUFs,
// and half of the (class, center) pairs priced out by an energy figure no
// utility can pay for, so the admitted commodity set is ~K·L.
func synthSystem(K, L, S int) *datacenter.System {
	classes := make([]datacenter.RequestClass, K)
	for k := range classes {
		u := 12 + float64(k)
		classes[k] = datacenter.RequestClass{
			Name: fmt.Sprintf("class%02d", k),
			TUF: tuf.MustNew([]tuf.Level{
				{Utility: u, Deadline: 0.02},
				{Utility: u * 0.45, Deadline: 0.08},
			}),
			TransferCostPerMile: 0.00005,
		}
	}
	fes := make([]datacenter.FrontEnd, S)
	for s := range fes {
		d := make([]float64, L)
		for l := range d {
			d[l] = 200 + 37*float64((s*7+l*11)%29)
		}
		fes[s] = datacenter.FrontEnd{Name: fmt.Sprintf("fe%d", s), DistanceMiles: d}
	}
	centers := make([]datacenter.DataCenter, L)
	for l := range centers {
		mu := make([]float64, K)
		en := make([]float64, K)
		for k := range mu {
			mu[k] = 900 + 20*float64((l+k)%6)
			if (l*7+k)%2 == 0 {
				en[k] = 0.0004 + 0.00002*float64((l*3+k)%5)
			} else {
				en[k] = 1.5
			}
		}
		centers[l] = datacenter.DataCenter{
			Name: fmt.Sprintf("dc%02d", l), Servers: 4, Capacity: 1,
			ServiceRate: mu, EnergyPerRequest: en,
		}
	}
	return &datacenter.System{Classes: classes, FrontEnds: fes, Centers: centers}
}

// Every generated trace is one day long and wraps (workload.Trace.At,
// market.PriceTrace.At), so a workload that commits more slots than that
// replays the day — which is what gives every slot input many identical
// repeats to take a floor over (see floors in slots.go). The paper's day
// has 24 hourly slots; the synthetic fleets' has 12, which doubles the
// repeats a run fits of their far longer slots.
const (
	paperDaySlots = 24
	synthDaySlots = 12
)

// synthConfig drives synthSystem with a seeded diurnal drift: each
// (front-end, class) arrival stream swings ±3 % and each center price
// ±2 % around the bench_test.go bases, on a sinusoid whose harmonic of the
// day and phase come from the seed. The drift is small and smooth, like a
// real trace between neighbouring slots, so the admitted commodity set
// (hence the LP structure) is stable and hot re-solves are what a slot
// costs.
func synthConfig(sys *datacenter.System, seed int64) sim.Config {
	rng := rand.New(rand.NewSource(seed))
	K, L, S := sys.K(), sys.L(), sys.S()
	wave := func() func(int) float64 {
		phase := 2 * math.Pi * rng.Float64()
		harmonic := float64(1 + rng.Intn(3))
		return func(slot int) float64 {
			return math.Sin(2*math.Pi*harmonic*float64(slot)/synthDaySlots + phase)
		}
	}
	traces := make([]*workload.Trace, S)
	for s := range traces {
		tr := &workload.Trace{Name: sys.FrontEnds[s].Name, Rates: make([][]float64, synthDaySlots)}
		for t := range tr.Rates {
			tr.Rates[t] = make([]float64, K)
		}
		for k := 0; k < K; k++ {
			base := 400 + 30*float64((s+k)%7)
			w := wave()
			for t := range tr.Rates {
				tr.Rates[t][k] = base * (1 + 0.03*w(t))
			}
		}
		traces[s] = tr
	}
	prices := make([]*market.PriceTrace, L)
	for l := range prices {
		pt := &market.PriceTrace{Name: sys.Centers[l].Name, Prices: make([]float64, synthDaySlots)}
		base := 30 + float64(l%9)
		w := wave()
		for t := range pt.Prices {
			pt.Prices[t] = base * (1 + 0.02*w(t))
		}
		prices[l] = pt
	}
	return sim.Config{
		Sys: sys, Traces: traces, Prices: prices, Slots: synthDaySlots,
		Feeds: &feed.Config{}, DegradeOnFailure: true,
	}
}
