package core

import (
	"reflect"
	"testing"

	"profitlb/internal/race"
)

// planSlabs is what a plan's storage costs in allocations at any size:
// the Plan, ServersOn, the Rate and Phi tops, and the three slabs the
// rows are cut from.
const planSlabs = 7

// numbered fills every rate and share cell of p with a distinct value.
func numbered(p *Plan) *Plan {
	v := 1.0
	for k := range p.Rate {
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				for l := range p.Rate[k][q][s] {
					p.Rate[k][q][s][l], v = v, v+1
				}
			}
		}
	}
	for l := range p.Phi {
		for k := range p.Phi[l] {
			for q := range p.Phi[l][k] {
				p.Phi[l][k][q], v = v, v+1
			}
		}
	}
	for l := range p.ServersOn {
		p.ServersOn[l] = l + 1
	}
	p.Objective = v
	return p
}

// everyRow calls f on every Rate[k][q][s] and Phi[l][k] row of p.
func everyRow(p *Plan, f func(row *[]float64)) {
	for k := range p.Rate {
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				f(&p.Rate[k][q][s])
			}
		}
	}
	for l := range p.Phi {
		for k := range p.Phi[l] {
			f(&p.Phi[l][k])
		}
	}
}

// TestPlanAllocs: NewPlan and Clone cost planSlabs allocations whatever
// K·Q·S·L is, and refilling a same-shaped copy — by CopyTo, or a plan
// handed back to its planner (reuse) — costs none.
func TestPlanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	for _, sz := range builderSizes {
		sys := synthInput(sz.K, sz.L, sz.S).Sys
		if got := testing.AllocsPerRun(100, func() { NewPlan(sys) }); got > planSlabs {
			t.Errorf("%s: NewPlan makes %v allocations, budget %d", sz.name, got, planSlabs)
		}
		p := numbered(NewPlan(sys))
		if got := testing.AllocsPerRun(100, func() { p.Clone() }); got > planSlabs {
			t.Errorf("%s: Clone makes %v allocations, budget %d", sz.name, got, planSlabs)
		}
		held := p.Clone()
		if got := testing.AllocsPerRun(100, func() { held = p.CopyTo(held) }); got != 0 {
			t.Errorf("%s: CopyTo a same-shaped plan makes %v allocations, want none", sz.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { p.Shift(held) }); got != 0 {
			t.Errorf("%s: Shift makes %v allocations, want none", sz.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { held = reuse(held, sys) }); got != 0 {
			t.Errorf("%s: refilling a handed-back plan makes %v allocations, want none", sz.name, got)
		}
	}
}

// TestPlanRowsDoNotAlias: rows cut from one slab stay apart. Appending to
// every row of a fresh plan and of a clone leaves every other row's cells
// where they were.
func TestPlanRowsDoNotAlias(t *testing.T) {
	sys := synthInput(3, 4, 2).Sys
	for name, p := range map[string]*Plan{"NewPlan": numbered(NewPlan(sys)), "Clone": numbered(NewPlan(sys)).Clone()} {
		want := p.Clone()
		everyRow(p, func(row *[]float64) { *row = append(*row, -1) })
		everyRow(p, func(row *[]float64) { *row = (*row)[:len(*row)-1] })
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: appending to one row wrote into another", name)
		}
	}
}

// TestCloneIsDeep: a clone, or a copy refilled by CopyTo, shares no cell
// with its source; CopyTo into a differently shaped plan leaves it alone.
func TestCloneIsDeep(t *testing.T) {
	sys := synthInput(3, 4, 2).Sys
	p := numbered(NewPlan(sys))
	clone, want := p.Clone(), numbered(NewPlan(sys))
	held := p.CopyTo(NewPlan(sys))
	everyRow(p, func(row *[]float64) {
		for i := range *row {
			(*row)[i] = -7
		}
	})
	p.ServersOn[0] = -7
	if !reflect.DeepEqual(clone, want) || !reflect.DeepEqual(held, want) {
		t.Fatal("mutating a plan changed its clone")
	}

	other := NewPlan(synthInput(3, 5, 2).Sys)
	if got := want.CopyTo(other); got == other || !reflect.DeepEqual(got, want) {
		t.Fatal("CopyTo into a differently shaped plan did not return a fresh copy")
	}
	if !reflect.DeepEqual(other, NewPlan(synthInput(3, 5, 2).Sys)) {
		t.Fatal("CopyTo wrote into a differently shaped plan")
	}
	if _, ok := want.Shift(other); ok {
		t.Fatal("Shift measured two differently shaped plans")
	}
}
