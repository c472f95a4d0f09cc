// Package exp defines one runnable experiment per table and figure of the
// paper's evaluation (Sections V–VII), the five extensions a gate, the
// README or another experiment names (abl13-defer, rob2-chaos,
// rob3-darkfeeds, mpc1-priceshift, mpc2-faultdefer), and a registry the
// CLI and the benchmark harness share. Each paper experiment reconstructs
// its setup from the paper's printed parameters where available and from
// the documented substitutions in DESIGN.md otherwise, runs the Optimized
// and Balanced approaches through the simulator, and renders the same
// rows/series the paper reports.
package exp

import (
	"profitlb/internal/datacenter"
	"profitlb/internal/market"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// BasicSetup reproduces the Section V configuration: 4 front-ends, 3
// request types with constant (one-level) TUFs, 3 heterogeneous data
// centers of 6 homogeneous servers each, synthetic workloads and synthetic
// electricity prices, and no transfer costs ("transferring cost is not
// considered in this basic study"). Rates are per second; the slot scalar
// T converts them to hourly request counts.
type BasicSetup struct {
	Sys    *datacenter.System
	Low    [][]float64 // Table II(a): λ_{k,s} per second, [s][k]
	High   [][]float64 // Table II(b)
	Prices []*market.PriceTrace
}

// NewBasicSetup builds the Section V setup.
func NewBasicSetup() *BasicSetup {
	sys := &datacenter.System{
		SlotHours: 3600, // rates are per second; a slot is one hour
		Classes: []datacenter.RequestClass{
			{Name: "request1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.5}})},
			{Name: "request2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.8}})},
			{Name: "request3", TUF: tuf.MustNew([]tuf.Level{{Utility: 30, Deadline: 1.0}})},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "server1", DistanceMiles: []float64{0, 0, 0}},
			{Name: "server2", DistanceMiles: []float64{0, 0, 0}},
			{Name: "server3", DistanceMiles: []float64{0, 0, 0}},
			{Name: "server4", DistanceMiles: []float64{0, 0, 0}},
		},
		Centers: []datacenter.DataCenter{
			{
				// Table III: C=1, μ = 150/130/110 req/s, cost = 2/4/6 kWh.
				Name: "datacenter1", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{150, 130, 110},
				EnergyPerRequest: []float64{2, 4, 6},
			},
			{
				Name: "datacenter2", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{140, 120, 130},
				EnergyPerRequest: []float64{1, 3, 5},
			},
			{
				Name: "datacenter3", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{120, 130, 160},
				EnergyPerRequest: []float64{1, 3, 6},
			},
		},
	}
	low := [][]float64{
		{60, 30, 15},
		{55, 32, 18},
		{65, 28, 12},
		{60, 31, 16},
	}
	// The high set is deliberately skewed toward request1: the balanced
	// baseline's fixed 1/K share starves the hot type while idling the
	// cold one, which is where the optimized approach's ~16% service gain
	// comes from in the paper.
	high := [][]float64{
		{620, 300, 140},
		{600, 320, 150},
		{640, 280, 130},
		{610, 310, 145},
	}
	// Synthetic prices with distinct bases, phases and strong swings; the
	// kWh-scale per-request energies of Table III make dispatch placement
	// matter at these prices.
	prices := []*market.PriceTrace{
		market.Synthetic(market.SyntheticConfig{Name: "loc1", Base: 1.20, Seed: 11, PeakHour: 15}),
		market.Synthetic(market.SyntheticConfig{Name: "loc2", Base: 2.00, Seed: 12, PeakHour: 18}),
		market.Synthetic(market.SyntheticConfig{Name: "loc3", Base: 1.60, Seed: 13, PeakHour: 12}),
	}
	return &BasicSetup{Sys: sys, Low: low, High: high, Prices: prices}
}

// Config assembles a 24-slot simulation with constant arrival rates drawn
// from the chosen Table II set.
func (b *BasicSetup) Config(high bool) sim.Config {
	rates := b.Low
	if high {
		rates = b.High
	}
	traces := make([]*workload.Trace, len(rates))
	for s, r := range rates {
		traces[s] = workload.Constant(b.Sys.FrontEnds[s].Name, r, 24)
	}
	return sim.Config{Sys: b.Sys, Traces: traces, Prices: b.Prices, Slots: 24}
}

// TraceSetup reproduces the Section VI configuration: the World-Cup-like
// day-long traces of Fig. 5 at 4 front-ends, 3 request types derived by
// time-shifting, one-level TUFs (Table VII), the Tables IV–VI capacities,
// distances and processing costs, and the Fig. 1 electricity prices. Rates
// are per hour; T = 1 hour.
type TraceSetup struct {
	Sys    *datacenter.System
	Traces []*workload.Trace
	Prices []*market.PriceTrace
}

// NewTraceSetup builds the Section VI setup.
func NewTraceSetup() *TraceSetup {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			// Table VII: max values 10/20/30 $; deadlines in hours.
			// Table: transfer costs 0.003/0.005/0.007 $/mile.
			{Name: "request1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.010}}), TransferCostPerMile: 0.003},
			{Name: "request2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.008}}), TransferCostPerMile: 0.005},
			{Name: "request3", TUF: tuf.MustNew([]tuf.Level{{Utility: 30, Deadline: 0.006}}), TransferCostPerMile: 0.007},
		},
		// Table V: DC2 is farthest from every front-end.
		FrontEnds: []datacenter.FrontEnd{
			{Name: "frontend1", DistanceMiles: []float64{300, 1900, 700}},
			{Name: "frontend2", DistanceMiles: []float64{500, 2100, 900}},
			{Name: "frontend3", DistanceMiles: []float64{400, 2000, 600}},
			{Name: "frontend4", DistanceMiles: []float64{600, 2200, 800}},
		},
		// Table IV: per-DC hourly capacities; per-server μ = capacity / 6.
		// DC1 and DC2 tie on request1; DC3 is fastest for it.
		Centers: []datacenter.DataCenter{
			{
				Name: "datacenter1", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{9000.0 / 6, 8400.0 / 6, 7200.0 / 6},
				EnergyPerRequest: []float64{0.0003, 0.0005, 0.0007},
			},
			{
				Name: "datacenter2", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{9000.0 / 6, 7800.0 / 6, 9600.0 / 6},
				EnergyPerRequest: []float64{0.00028, 0.00052, 0.00068},
			},
			{
				Name: "datacenter3", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{15000.0 / 6, 9000.0 / 6, 8400.0 / 6},
				EnergyPerRequest: []float64{0.00032, 0.00048, 0.00072},
			},
		},
	}
	// Fig. 5: four day-long traces with diurnal swing and a flash crowd,
	// shifted into three request types per front-end.
	seeds := []int64{101, 102, 103, 104}
	traces := make([]*workload.Trace, len(seeds))
	for s, seed := range seeds {
		base := workload.WorldCupLike(workload.WorldCupConfig{
			Seed: seed, Base: 650 + 100*float64(s), Slots: 24,
		})
		traces[s] = workload.ShiftTypes(sys.FrontEnds[s].Name, base, 3, 4)
	}
	return &TraceSetup{Sys: sys, Traces: traces, Prices: market.Locations()}
}

// Config assembles the 24-hour Section VI simulation.
func (t *TraceSetup) Config() sim.Config {
	return sim.Config{Sys: t.Sys, Traces: t.Traces, Prices: t.Prices, Slots: 24}
}

// TwoLevelSetup reproduces the Section VII configuration: the Google-like
// 7-hour trace duplicated into two request types, two-level step-downward
// TUFs (Tables IX–X), two data centers of 6 servers (Table VIII
// capacities, Table XI energies), one front-end at 1000/2000 miles, and
// the Houston / Mountain View prices in the high-vibration 14:00–19:00
// window.
type TwoLevelSetup struct {
	Sys    *datacenter.System
	Traces []*workload.Trace
	Prices []*market.PriceTrace
	// Scale multiplies both centers' service rates, reproducing the
	// "relatively low workload" (scale 2) and "relatively high workload"
	// (scale 0.5) variants of Fig. 10.
	Scale float64
}

// NewTwoLevelSetup builds the Section VII setup at unit capacity scale.
func NewTwoLevelSetup() *TwoLevelSetup { return newTwoLevelSetup(1) }

// NewTwoLevelSetupScaled builds the Fig. 10 variants.
func NewTwoLevelSetupScaled(scale float64) *TwoLevelSetup { return newTwoLevelSetup(scale) }

func newTwoLevelSetup(scale float64) *TwoLevelSetup {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{
				Name: "request1",
				// Tables IX–X: sub-deadlines 0.005/0.02 h, values 10/4 $.
				TUF:                 tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.005}, {Utility: 4, Deadline: 0.02}}),
				TransferCostPerMile: 0.0002,
			},
			{
				Name:                "request2",
				TUF:                 tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.004}, {Utility: 8, Deadline: 0.015}}),
				TransferCostPerMile: 0.0003,
			},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "frontend", DistanceMiles: []float64{1000, 2000}},
		},
		Centers: []datacenter.DataCenter{
			{
				// Table VIII: hourly capacities; Table XI: kWh/request.
				Name: "datacenter1", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{scale * 9000 / 6, scale * 3600 / 6},
				EnergyPerRequest: []float64{0.0004, 0.0006},
			},
			{
				Name: "datacenter2", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{scale * 7200 / 6, scale * 5400 / 6},
				EnergyPerRequest: []float64{0.0005, 0.0005},
			},
		},
	}
	// The 2010 Google trace spans ~7 hours; the paper duplicates it and
	// shifts it along the time scale to get the second request type.
	base := workload.GoogleLike(workload.GoogleConfig{Seed: 200, Mean: 4100, Slots: 7})
	traces := []*workload.Trace{workload.ShiftTypes("frontend", base, 2, 2)}
	prices := []*market.PriceTrace{market.Houston(), market.MountainView()}
	return &TwoLevelSetup{Sys: sys, Traces: traces, Prices: prices, Scale: scale}
}

// Config assembles the Section VII simulation over the 14:00–19:00 window
// (6 hourly slots).
func (t *TwoLevelSetup) Config() sim.Config {
	return sim.Config{
		Sys: t.Sys, Traces: t.Traces, Prices: t.Prices,
		Slots: 6, StartSlot: 14,
	}
}
