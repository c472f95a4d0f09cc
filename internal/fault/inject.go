package fault

import (
	"errors"
	"fmt"

	"profitlb/internal/core"
)

// ErrInjected is the error an Injector returns on a planner-error slot.
var ErrInjected = errors.New("fault: injected planner error")

// Injector wraps a planner and fires the schedule's planner faults at the
// slots they cover, keyed by Input.Slot. Timeout slots return a wrapped
// core.ErrTimeout and error slots ErrInjected, both without calling the
// wrapped planner; panic slots panic. All other behaviour passes through
// unchanged.
type Injector struct {
	Planner core.Planner
	Sched   *Schedule
}

// Name implements core.Planner, keeping the inner planner's name so
// reports stay comparable with un-faulted runs.
func (inj *Injector) Name() string { return inj.Planner.Name() }

// Unwrap exposes the wrapped planner, so hosts can discover capabilities
// of the inner planner (core.AsDeferral) through the injector.
func (inj *Injector) Unwrap() core.Planner { return inj.Planner }

// Plan implements core.Planner.
func (inj *Injector) Plan(in *core.Input) (*core.Plan, error) {
	if kind, ok := inj.Sched.PlannerFault(in.Slot); ok {
		switch kind {
		case PlannerTimeout:
			return nil, fmt.Errorf("%w at slot %d", core.ErrTimeout, in.Slot)
		case PlannerError:
			return nil, fmt.Errorf("%w at slot %d", ErrInjected, in.Slot)
		case PlannerPanic:
			panic(fmt.Sprintf("fault: injected planner panic at slot %d", in.Slot))
		}
	}
	return inj.Planner.Plan(in)
}
