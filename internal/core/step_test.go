package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"profitlb/internal/datacenter"
)

// stubPlanner answers Plan from a func and counts the calls.
type stubPlanner struct {
	plan  func(in *Input) (*Plan, error)
	calls int
}

func (s *stubPlanner) Name() string { return "stub" }
func (s *stubPlanner) Plan(in *Input) (*Plan, error) {
	s.calls++
	return s.plan(in)
}

// stubDeferral is a deferring stub: a fixed backlog budget, and a ledger
// recording what each CommitSlot was handed.
type stubDeferral struct {
	stubPlanner
	budget  [][]float64
	commits []*Plan
	actual  []*Input
}

func (s *stubDeferral) BacklogBudget() [][]float64 { return s.budget }
func (s *stubDeferral) CommitSlot(actual *Input, committed *Plan) BacklogSlot {
	s.commits = append(s.commits, committed)
	s.actual = append(s.actual, actual)
	return BacklogSlot{Drained: []float64{committed.Served(0)}}
}
func (s *stubDeferral) ForceDrain(*Input, *Plan) float64 { return 0 }

// tiered wraps a planner the way the resilient chain does: it reports a
// fallback tier and hides the inner planner's capabilities behind Unwrap.
type tiered struct{ inner Planner }

func (w tiered) Name() string                     { return w.inner.Name() }
func (w tiered) Plan(in *Input) (*Plan, error)    { return w.inner.Plan(in) }
func (w tiered) Unwrap() Planner                  { return w.inner }
func (tiered) FallbackState() (int, string, bool) { return 2, "balanced", true }
func (tiered) VerifiedPlan() *Plan                { return nil }

// gated is tiered plus the resilient chain's receipt: VerifiedPlan names
// the plan Plan last returned, or, when forged, a plan it never returned.
type gated struct {
	tiered
	forged bool
	last   *Plan
}

func (g *gated) Plan(in *Input) (*Plan, error) {
	plan, err := g.inner.Plan(in)
	g.last = plan
	return plan, err
}

func (g *gated) VerifiedPlan() *Plan {
	if g.forged {
		return &Plan{}
	}
	return g.last
}

func TestStepProtocol(t *testing.T) {
	sys := oneDCSystem()
	view := &Input{Sys: sys, Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}
	half := &Input{Sys: sys, Arrivals: [][]float64{{25}}, Prices: []float64{0.1}}
	good := func(in *Input) (*Plan, error) { return NewOptimized().Plan(in) }
	// overdraw dispatches twice the view's arrivals.
	overdraw := func(in *Input) (*Plan, error) {
		return good(&Input{Sys: sys, Arrivals: [][]float64{{100}}, Prices: in.Prices})
	}
	// dark is an actual input whose topology lost the servers the view
	// still showed: feasible on the view, infeasible once reconciled.
	darkSys := *sys
	darkSys.Centers = []datacenter.DataCenter{sys.Centers[0]}
	darkSys.Centers[0].Servers = 0
	dark := &Input{Sys: &darkSys, Arrivals: view.Arrivals, Prices: view.Prices}

	cases := []struct {
		name      string
		plan      func(in *Input) (*Plan, error)
		actual    *Input
		distorted bool
		deferring bool
		budget    float64
		receipt   string  // "" (none), "own" or "forged"
		wantErr   string  // substring of SlotCommit.Err; "" = slot commits
		served    float64 // committed dispatch rate
	}{
		{name: "clean", plan: good, actual: view, served: 50},
		{name: "planner panic", plan: func(*Input) (*Plan, error) { panic("boom") }, actual: view, wantErr: "panicked: boom"},
		{name: "planner error", plan: func(*Input) (*Plan, error) { return nil, errors.New("no basis") }, actual: view, wantErr: "no basis"},
		{name: "infeasible plan", plan: overdraw, actual: view, wantErr: "infeasible plan from stub"},
		{name: "distorted view reconciled", plan: good, actual: half, distorted: true, served: 25},
		{name: "reconciled plan re-verified", plan: good, actual: dark, distorted: true, wantErr: "reconciled plan infeasible"},
		{name: "backlog widens the budget", plan: overdraw, actual: view, deferring: true, budget: 50, served: 100},
		{name: "backlog budget is a bound", plan: overdraw, actual: view, deferring: true, budget: 10, wantErr: "infeasible plan"},
		{name: "receipt skips the view-side verify", plan: overdraw, actual: view, receipt: "own", served: 100},
		{name: "receipt for another plan is verified", plan: overdraw, actual: view, receipt: "forged", wantErr: "infeasible plan from stub"},
		{name: "receipt on a distorted view is reconciled", plan: good, actual: half, distorted: true, receipt: "own", served: 25},
		{name: "receipt on a distorted view is re-verified", plan: good, actual: dark, distorted: true, receipt: "own", wantErr: "reconciled plan infeasible"},
		{name: "failed deferring slot settles once", plan: func(*Input) (*Plan, error) { panic("boom") }, actual: half, distorted: true, deferring: true, budget: 50, wantErr: "panicked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Planner
			stub := &stubPlanner{plan: tc.plan}
			p = stub
			var dp *stubDeferral
			if tc.deferring {
				dp = &stubDeferral{stubPlanner: stubPlanner{plan: tc.plan}, budget: [][]float64{{tc.budget}}}
				stub, p = &dp.stubPlanner, dp
			}
			var w Planner = tiered{p}
			if tc.receipt != "" {
				w = &gated{tiered: tiered{p}, forged: tc.receipt == "forged"}
			}
			c := Step(w, view, tc.actual, tc.distorted)
			if stub.calls != 1 {
				t.Fatalf("Plan called %d times, want exactly once", stub.calls)
			}
			if tc.wantErr == "" {
				if c.Err != nil {
					t.Fatalf("slot failed: %v", c.Err)
				}
				if c.Tier != 2 || c.TierName != "balanced" || !c.Degraded {
					t.Fatalf("fallback state not read: %d %q %v", c.Tier, c.TierName, c.Degraded)
				}
			} else {
				if c.Err == nil || !strings.Contains(c.Err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", c.Err, tc.wantErr)
				}
				if c.Tier != -1 || c.TierName != "shed" || !c.Degraded {
					t.Fatalf("failed slot not marked shed: %d %q %v", c.Tier, c.TierName, c.Degraded)
				}
			}
			if got := c.Plan.Served(0); math.Abs(got-tc.served) > 1e-9 {
				t.Fatalf("committed plan serves %g, want %g", got, tc.served)
			}
			if !tc.deferring {
				if c.Backlog != nil {
					t.Fatal("ledger settled for a slot-myopic planner")
				}
				return
			}
			// The ledger settles exactly once, on the committed plan (the
			// empty one when the slot failed) and the actual input.
			if len(dp.commits) != 1 || dp.commits[0] != c.Plan || dp.actual[0] != tc.actual {
				t.Fatalf("CommitSlot calls %d, want one with the committed plan and the actual input", len(dp.commits))
			}
			if c.Backlog == nil || c.Backlog.Drained[0] != c.Plan.Served(0) {
				t.Fatalf("ledger %+v does not reflect the committed plan", c.Backlog)
			}
		})
	}
}
