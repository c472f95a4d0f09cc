// Package datacenter models the physical substrate of the paper's system
// architecture (Section III-A): S front-end servers that collect requests,
// L heterogeneous data centers each holding M_l homogeneous servers, the
// distances between them, and the two dollar-cost models — per-request
// processing energy (Eq. 2, Google's energy-per-search model) and
// per-request transfer cost proportional to distance (Eq. 3).
package datacenter

import (
	"errors"
	"fmt"

	"profitlb/internal/tuf"
)

// RequestClass describes one of the K service types: its time utility
// function (the SLA-derived profit model) and its unit transfer cost.
type RequestClass struct {
	Name string
	// TUF maps expected delay to per-request profit.
	TUF *tuf.StepDownward
	// TransferCostPerMile is TranCost_k of Eq. 3, dollars per request-mile.
	TransferCostPerMile float64
}

// DataCenter is one location: M homogeneous servers of capacity C, with
// per-type service rates and per-request processing energies, priced by an
// electricity trace index managed by the caller.
type DataCenter struct {
	Name string
	// Servers is M_l, the number of homogeneous servers.
	Servers int
	// Capacity is C_{i,l}; the paper normalizes to 1.
	Capacity float64
	// ServiceRate[k] is μ_{k,l}: requests per unit time a full server
	// processes for type k.
	ServiceRate []float64
	// EnergyPerRequest[k] is P_{k,l}: kWh consumed to process one type-k
	// request (the Google per-search energy model).
	EnergyPerRequest []float64
	// PUE is the power-usage-effectiveness multiplier applied to
	// processing energy; the paper suggests it as the extension for
	// cooling/peripheral overhead. Zero means 1.0 (no overhead).
	PUE float64
	// IdleEnergyPerServer is the energy (kWh) one powered-on server draws
	// per unit of the slot scalar T, independent of load. The paper's
	// model is purely per-request (zero here); setting it makes the
	// consolidation pass financially meaningful and is the natural
	// extension toward power-proportional fleets (paper ref [8]).
	IdleEnergyPerServer float64
}

// EffectivePUE returns the PUE with the zero-value default of 1.
func (d *DataCenter) EffectivePUE() float64 {
	if d.PUE <= 0 {
		return 1
	}
	return d.PUE
}

// FrontEnd is one of the S request collectors.
type FrontEnd struct {
	Name string
	// DistanceMiles[l] is d_{s,l}: miles to data center l.
	DistanceMiles []float64
}

// System ties classes, front-ends and data centers into one topology.
type System struct {
	Classes   []RequestClass
	FrontEnds []FrontEnd
	Centers   []DataCenter
	// SlotHours is T, the slot length in hours (the paper uses one hour,
	// matching electricity-price adjustment). Zero means 1.
	SlotHours float64
}

// K, S and L return the topology dimensions.
func (sys *System) K() int { return len(sys.Classes) }

// S returns the number of front-end servers.
func (sys *System) S() int { return len(sys.FrontEnds) }

// L returns the number of data centers.
func (sys *System) L() int { return len(sys.Centers) }

// Slot returns the slot length T in hours, defaulting to 1.
func (sys *System) Slot() float64 {
	if sys.SlotHours <= 0 {
		return 1
	}
	return sys.SlotHours
}

// ErrEmptySystem is returned when a dimension of the topology is empty.
var ErrEmptySystem = errors.New("datacenter: system needs at least one class, front-end and data center")

// Validate checks dimensional consistency of the whole topology.
func (sys *System) Validate() error {
	k, s, l := sys.K(), sys.S(), sys.L()
	if k == 0 || s == 0 || l == 0 {
		return ErrEmptySystem
	}
	for i, c := range sys.Classes {
		if c.TUF == nil {
			return fmt.Errorf("datacenter: class %d (%s) has no TUF", i, c.Name)
		}
		if c.TransferCostPerMile < 0 {
			return fmt.Errorf("datacenter: class %d (%s) negative transfer cost", i, c.Name)
		}
	}
	for i, fe := range sys.FrontEnds {
		if len(fe.DistanceMiles) != l {
			return fmt.Errorf("datacenter: front-end %d (%s) has %d distances, want %d", i, fe.Name, len(fe.DistanceMiles), l)
		}
		for j, d := range fe.DistanceMiles {
			if d < 0 {
				return fmt.Errorf("datacenter: front-end %d (%s) negative distance to center %d", i, fe.Name, j)
			}
		}
	}
	for i, dc := range sys.Centers {
		// Zero servers is legal and means the center is offline for the
		// slot (a fault-injected outage); planners must route around it.
		if dc.Servers < 0 {
			return fmt.Errorf("datacenter: center %d (%s) has %d servers", i, dc.Name, dc.Servers)
		}
		if dc.Capacity <= 0 {
			return fmt.Errorf("datacenter: center %d (%s) non-positive capacity", i, dc.Name)
		}
		if len(dc.ServiceRate) != k || len(dc.EnergyPerRequest) != k {
			return fmt.Errorf("datacenter: center %d (%s) per-type arrays sized %d/%d, want %d",
				i, dc.Name, len(dc.ServiceRate), len(dc.EnergyPerRequest), k)
		}
		for j := 0; j < k; j++ {
			if dc.ServiceRate[j] <= 0 {
				return fmt.Errorf("datacenter: center %d (%s) non-positive service rate for type %d", i, dc.Name, j)
			}
			if dc.EnergyPerRequest[j] < 0 {
				return fmt.Errorf("datacenter: center %d (%s) negative energy for type %d", i, dc.Name, j)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the system: mutating the copy's centers,
// front-ends or classes never affects the original. TUFs are immutable
// and therefore shared.
func (sys *System) Clone() *System {
	out := &System{SlotHours: sys.SlotHours}
	out.Classes = append([]RequestClass(nil), sys.Classes...)
	for _, fe := range sys.FrontEnds {
		out.FrontEnds = append(out.FrontEnds, FrontEnd{
			Name:          fe.Name,
			DistanceMiles: append([]float64(nil), fe.DistanceMiles...),
		})
	}
	for _, dc := range sys.Centers {
		cp := dc
		cp.ServiceRate = append([]float64(nil), dc.ServiceRate...)
		cp.EnergyPerRequest = append([]float64(nil), dc.EnergyPerRequest...)
		out.Centers = append(out.Centers, cp)
	}
	return out
}

// TransferCost returns the dollar cost of moving one type-k request from
// front-end s to data center l (the per-request factor of Eq. 3).
func (sys *System) TransferCost(k, s, l int) float64 {
	return sys.Classes[k].TransferCostPerMile * sys.FrontEnds[s].DistanceMiles[l]
}

// EnergyCost returns the dollar cost of processing one type-k request at
// data center l under electricity price p (the per-request factor of
// Eq. 2), including the PUE extension.
func (sys *System) EnergyCost(k, l int, price float64) float64 {
	dc := &sys.Centers[l]
	return dc.EnergyPerRequest[k] * dc.EffectivePUE() * price
}

// IdleCost returns the dollar cost of keeping one server at center l
// powered on for one slot under electricity price p, including PUE.
func (sys *System) IdleCost(l int, price float64) float64 {
	dc := &sys.Centers[l]
	return dc.IdleEnergyPerServer * dc.EffectivePUE() * price * sys.Slot()
}

// UnitProfit returns the profit coefficient of one type-k request routed
// s→l that earns utility u: u − energy − transfer. This is the objective
// coefficient of the paper's Eq. 5 before multiplying by λ and T. Each
// cost is rounded before it is subtracted (the conversions forbid a fused
// multiply-add), so a caller that stores the costs first and subtracts
// them in the same order gets the same bits on every architecture.
func (sys *System) UnitProfit(k, s, l int, u, price float64) float64 {
	return (u - float64(sys.EnergyCost(k, l, price))) - float64(sys.TransferCost(k, s, l))
}

// DedicatedCapacity returns the largest aggregate arrival rate of type k
// that data center l can serve within delay target d if every server
// dedicates share phi to the type: M·(φCμ − 1/d), floored at zero.
func (sys *System) DedicatedCapacity(k, l int, phi, d float64) float64 {
	dc := &sys.Centers[l]
	per := phi*dc.Capacity*dc.ServiceRate[k] - 1/d
	if per < 0 {
		return 0
	}
	return float64(dc.Servers) * per
}
