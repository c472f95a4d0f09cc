package datacenter

import (
	"errors"
	"fmt"
)

// The paper assumes homogeneous servers within a data center and notes the
// model "can be easily extended to heterogeneous data centers with
// heterogeneous servers". This file implements that extension in the way
// the formulation naturally supports: a heterogeneous center is expanded
// into co-located homogeneous server groups, each becoming its own
// DataCenter entry sharing the original distances, so the planner's
// per-center variables line up with per-group variables.

// ServerGroup is one homogeneous slice of a heterogeneous data center.
type ServerGroup struct {
	// Name suffixes the expanded center name (defaults to the index).
	Name string
	// Servers, Capacity, ServiceRate and EnergyPerRequest have the same
	// meaning as on DataCenter.
	Servers          int
	Capacity         float64
	ServiceRate      []float64
	EnergyPerRequest []float64
	// PUE optionally overrides the group's power usage effectiveness.
	PUE float64
}

// HeterogeneousCenter is a data center made of several server groups.
type HeterogeneousCenter struct {
	Name   string
	Groups []ServerGroup
}

// ErrNoGroups is returned when a heterogeneous center has no groups.
var ErrNoGroups = errors.New("datacenter: heterogeneous center needs at least one group")

// ExpandHeterogeneous builds a System in which each heterogeneous center
// is flattened into one homogeneous DataCenter per server group. The
// front-ends' DistanceMiles must be indexed by heterogeneous center (all
// groups of a center are co-located, so they inherit its distance). The
// returned system validates before being returned.
func ExpandHeterogeneous(classes []RequestClass, frontEnds []FrontEnd, centers []HeterogeneousCenter, slotHours float64) (*System, error) {
	sys := &System{Classes: classes, SlotHours: slotHours}
	// Expanded column index per (center, group).
	for _, hc := range centers {
		if len(hc.Groups) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoGroups, hc.Name)
		}
		for gi, g := range hc.Groups {
			name := g.Name
			if name == "" {
				name = fmt.Sprintf("g%d", gi)
			}
			sys.Centers = append(sys.Centers, DataCenter{
				Name:             hc.Name + "/" + name,
				Servers:          g.Servers,
				Capacity:         g.Capacity,
				ServiceRate:      append([]float64(nil), g.ServiceRate...),
				EnergyPerRequest: append([]float64(nil), g.EnergyPerRequest...),
				PUE:              g.PUE,
			})
		}
	}
	for _, fe := range frontEnds {
		if len(fe.DistanceMiles) != len(centers) {
			return nil, fmt.Errorf("datacenter: front-end %s has %d distances, want %d (one per heterogeneous center)",
				fe.Name, len(fe.DistanceMiles), len(centers))
		}
		var dist []float64
		for ci, hc := range centers {
			for range hc.Groups {
				dist = append(dist, fe.DistanceMiles[ci])
			}
		}
		sys.FrontEnds = append(sys.FrontEnds, FrontEnd{Name: fe.Name, DistanceMiles: dist})
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}
