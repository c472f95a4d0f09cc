package datacenter

import (
	"errors"
	"testing"

	"profitlb/internal/tuf"
)

func heteroFixture() ([]RequestClass, []FrontEnd, []HeterogeneousCenter) {
	classes := []RequestClass{
		{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.01}}), TransferCostPerMile: 0.001},
	}
	frontEnds := []FrontEnd{
		{Name: "fe1", DistanceMiles: []float64{100, 900}},
	}
	centers := []HeterogeneousCenter{
		{Name: "dcA", Groups: []ServerGroup{
			{Name: "fast", Servers: 2, Capacity: 2, ServiceRate: []float64{2000}, EnergyPerRequest: []float64{0.0004}},
			{Name: "slow", Servers: 4, Capacity: 1, ServiceRate: []float64{1200}, EnergyPerRequest: []float64{0.0003}},
		}},
		{Name: "dcB", Groups: []ServerGroup{
			{Servers: 6, Capacity: 1, ServiceRate: []float64{1500}, EnergyPerRequest: []float64{0.00035}, PUE: 1.3},
		}},
	}
	return classes, frontEnds, centers
}

func TestExpandHeterogeneous(t *testing.T) {
	classes, fes, centers := heteroFixture()
	sys, err := ExpandHeterogeneous(classes, fes, centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.L() != 3 {
		t.Fatalf("expanded centers = %d, want 3", sys.L())
	}
	if sys.Centers[0].Name != "dcA/fast" || sys.Centers[1].Name != "dcA/slow" || sys.Centers[2].Name != "dcB/g0" {
		t.Fatalf("names: %s %s %s", sys.Centers[0].Name, sys.Centers[1].Name, sys.Centers[2].Name)
	}
	// Groups of dcA share fe1's 100-mile distance; dcB keeps 900.
	want := []float64{100, 100, 900}
	for i, d := range sys.FrontEnds[0].DistanceMiles {
		if d != want[i] {
			t.Fatalf("distances %v, want %v", sys.FrontEnds[0].DistanceMiles, want)
		}
	}
	if sys.Centers[2].PUE != 1.3 {
		t.Fatal("PUE not propagated")
	}
}

func TestExpandHeterogeneousErrors(t *testing.T) {
	classes, fes, centers := heteroFixture()
	bad := []HeterogeneousCenter{{Name: "empty"}}
	if _, err := ExpandHeterogeneous(classes, fes, bad, 1); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("got %v, want ErrNoGroups", err)
	}
	shortFE := []FrontEnd{{Name: "fe", DistanceMiles: []float64{1}}}
	if _, err := ExpandHeterogeneous(classes, shortFE, centers, 1); err == nil {
		t.Fatal("want distance-count error")
	}
	// Group arrays must match the class count; Validate catches it.
	badGroup := []HeterogeneousCenter{{Name: "x", Groups: []ServerGroup{
		{Servers: 1, Capacity: 1, ServiceRate: []float64{1, 2}, EnergyPerRequest: []float64{0.1}},
	}}}
	if _, err := ExpandHeterogeneous(classes, []FrontEnd{{Name: "fe", DistanceMiles: []float64{5}}}, badGroup, 1); err == nil {
		t.Fatal("want validation error")
	}
}

func TestExpandedGroupsIndependent(t *testing.T) {
	classes, fes, centers := heteroFixture()
	sys, err := ExpandHeterogeneous(classes, fes, centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the expanded system must not touch the input spec.
	sys.Centers[0].ServiceRate[0] = 1
	if centers[0].Groups[0].ServiceRate[0] != 2000 {
		t.Fatal("expansion aliases the group spec")
	}
}
