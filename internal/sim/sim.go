// Package sim runs the paper's time-slotted evaluation loop: at the start
// of every slot the planner under test sees the slot's average arrival
// rates and electricity prices, as the run's telemetry feed layer
// (internal/feed) delivers them, and commits a dispatch/allocation plan; the
// simulator then accounts the achieved utility (from each commodity's
// expected M/M/1 delay through its TUF), the energy dollar cost (Eq. 2),
// the transfer dollar cost (Eq. 3) and the resulting net profit.
package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/obs"
	"profitlb/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Sys *datacenter.System
	// Traces holds one arrival trace per front-end, each with K types.
	// These are the *actual* arrivals the accounting sees.
	Traces []*workload.Trace
	// PlanTraces optionally holds the arrival traces the planner sees
	// (e.g. forecasts). When nil the planner sees the actual traces. When
	// set, each slot's committed dispatch is reconciled against the actual
	// arrivals: per (type, front-end), dispatch scales down to what really
	// arrived, and arrivals beyond the planned volume are dropped (no
	// capacity was reserved for them) — exactly the exposure of planning
	// on forecasts.
	PlanTraces []*workload.Trace
	// Prices holds one electricity price trace per data center.
	Prices []*market.PriceTrace
	// Slots is the number of slots to simulate.
	Slots int
	// StartSlot offsets into both traces (e.g. 14 to start at 14:00 on
	// hourly traces, as in the paper's Section VII window).
	StartSlot int
	// KeepPlans retains every slot's plan in the report (memory trade-off).
	KeepPlans bool
	// Faults optionally injects a deterministic fault schedule: center
	// outages and degradations reshape the topology both the planner and
	// the accounting see; price spikes hit both while price blackouts
	// stall only the planner's feed; trace drops/corruptions distort only
	// the planner's arrival view (reconciled against reality like
	// PlanTraces). Planner faults in the schedule only fire if the
	// planner is wrapped in a fault.Injector.
	Faults *fault.Schedule
	// Feeds configures the telemetry feed layer (internal/feed) every
	// planner input comes through: per-slot fetches with retry/backoff,
	// circuit breakers, and the LKG → forecast → prior fallback chain,
	// whose estimators also project an MPC planner's window. Nil means
	// the zero feed.Config. Feed fault events in Faults impair the
	// transport; with none active every fetch is fresh, and the planner
	// sees exactly the observed traces and prices. The accounting always
	// settles on true prices and actual arrivals — feeds distort only the
	// planner's view, and distorted plans are reconciled like PlanTraces.
	Feeds *feed.Config
	// Obs, when non-nil, streams the run's slot lifecycle — plan
	// commits with their dollar flows, failures, fallback tiers, feed
	// health transitions — into the observability layer (internal/obs)
	// as metrics and trace events. The scope only watches: a run with a
	// scope commits bit-identical reports to the same run without one
	// (asserted by TestObsRunBitIdentical). Shared across Compare lanes;
	// the registry and sinks are concurrency-safe.
	Obs *obs.Scope
	// DegradeOnFailure continues the horizon when a slot's plan fails
	// (planner error or panic, or an infeasible plan): the slot sheds all
	// load — zero served, the foregone value accounted in LostRevenue —
	// and is marked Degraded. When false (the default, matching the
	// paper's evaluation) such a slot aborts the run; Run still returns
	// the partial report alongside the error.
	DegradeOnFailure bool
}

// Validate checks the configuration against the system's dimensions.
func (c *Config) Validate() error {
	if c.Sys == nil {
		return errors.New("sim: config has no system")
	}
	if err := c.Sys.Validate(); err != nil {
		return err
	}
	if c.Slots <= 0 {
		return fmt.Errorf("sim: non-positive slot count %d", c.Slots)
	}
	if len(c.Traces) != c.Sys.S() {
		return fmt.Errorf("sim: %d traces for %d front-ends", len(c.Traces), c.Sys.S())
	}
	for s, tr := range c.Traces {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("sim: front-end %d: %w", s, err)
		}
		if tr.Types() != c.Sys.K() {
			return fmt.Errorf("sim: front-end %d trace has %d types, want %d", s, tr.Types(), c.Sys.K())
		}
	}
	if c.PlanTraces != nil {
		if len(c.PlanTraces) != c.Sys.S() {
			return fmt.Errorf("sim: %d plan traces for %d front-ends", len(c.PlanTraces), c.Sys.S())
		}
		for s, tr := range c.PlanTraces {
			if err := tr.Validate(); err != nil {
				return fmt.Errorf("sim: plan trace %d: %w", s, err)
			}
			if tr.Types() != c.Sys.K() {
				return fmt.Errorf("sim: plan trace %d has %d types, want %d", s, tr.Types(), c.Sys.K())
			}
		}
	}
	if len(c.Prices) != c.Sys.L() {
		return fmt.Errorf("sim: %d price traces for %d centers", len(c.Prices), c.Sys.L())
	}
	for l, pt := range c.Prices {
		if err := pt.Validate(); err != nil {
			return fmt.Errorf("sim: center %d: %w", l, err)
		}
	}
	if err := c.Faults.Validate(c.Sys.L(), c.Sys.S()); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// SlotReport is the accounting of one slot.
type SlotReport struct {
	Slot   int
	Prices []float64
	// OfferedByType[k] and ServedByType[k] are request counts for the slot
	// (rate × T).
	OfferedByType []float64
	ServedByType  []float64
	// CenterServed[k][l] is the request count of type k processed at
	// center l (the series of paper Figs. 7 and 9).
	CenterServed [][]float64
	Revenue      float64
	EnergyCost   float64
	TransferCost float64
	NetProfit    float64
	ServersOn    int
	// LostRevenue estimates the value of offered load that went unserved,
	// billed at each type's maximum TUF utility. It is an opportunity
	// cost reported alongside (never subtracted from) NetProfit.
	LostRevenue float64
	// Degraded marks a slot that did not get its primary plan: a
	// resilient fallback tier fired, or the plan failed outright and the
	// simulator shed the slot's load (Config.DegradeOnFailure).
	Degraded bool
	// FallbackTier records which tier of a resilient planner produced the
	// committed plan: 0 is the primary planner, higher values are deeper
	// fallbacks (see internal/resilient), and -1 means the planner
	// reported no fallback state.
	FallbackTier int
	// FallbackName is the committed tier's name ("shed" when the
	// simulator itself shed a failed slot).
	FallbackName string
	// FaultsActive lists the injected faults in effect during the slot.
	FaultsActive []string
	// Feeds records every feed's health for the slot — estimator tier,
	// staleness, breaker state.
	Feeds *feed.SlotHealth
	// Backlog is the slot's deferral ledger when the planner buffers
	// deferrable work across slots (core.DeferralPlanner, internal/mpc):
	// carried/drained/forced/shed backlog and newly deferred or lost
	// arrivals, in rate units. Nil for slot-myopic planners. When set,
	// LostRevenue is derived from the ledger — only work lost or shed for
	// good is billed, not work merely deferred.
	Backlog *core.BacklogSlot
	Plan    *core.Plan // nil unless Config.KeepPlans
}

// Offered returns the slot's total offered request count.
func (r *SlotReport) Offered() float64 { return sum(r.OfferedByType) }

// Served returns the slot's total served request count.
func (r *SlotReport) Served() float64 { return sum(r.ServedByType) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Report is the full run outcome for one planner.
type Report struct {
	Planner string
	Slots   []SlotReport
}

// TotalNetProfit sums net profit over all slots.
func (r *Report) TotalNetProfit() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].NetProfit
	}
	return s
}

// TotalCost sums energy and transfer dollar costs over all slots.
func (r *Report) TotalCost() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].EnergyCost + r.Slots[i].TransferCost
	}
	return s
}

// CompletionRate returns served/offered for type k over the whole run.
// Zero offered load returns 0, never NaN — a run that offered nothing
// completed nothing, and downstream aggregation (tables, means across
// types) must not be poisoned by a vacuous 1.0 or a NaN.
func (r *Report) CompletionRate(k int) float64 {
	var off, srv float64
	for i := range r.Slots {
		off += r.Slots[i].OfferedByType[k]
		srv += r.Slots[i].ServedByType[k]
	}
	if off == 0 {
		return 0
	}
	return srv / off
}

// DegradedSlots counts slots that did not get their primary plan.
func (r *Report) DegradedSlots() int {
	var n int
	for i := range r.Slots {
		if r.Slots[i].Degraded {
			n++
		}
	}
	return n
}

// FallbackActivations counts committed plans per fallback tier name,
// including "shed" slots; slots served by the primary planner (or by a
// planner with no fallback state) are not counted.
func (r *Report) FallbackActivations() map[string]int {
	out := map[string]int{}
	for i := range r.Slots {
		if r.Slots[i].Degraded && r.Slots[i].FallbackName != "" {
			out[r.Slots[i].FallbackName]++
		}
	}
	return out
}

// TotalLostRevenue sums the per-slot unserved-load opportunity cost.
func (r *Report) TotalLostRevenue() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].LostRevenue
	}
	return s
}

// FeedTierCounts counts feed-slots per estimator tier name ("fresh",
// "lkg", "forecast", "prior") across every feed of every slot.
func (r *Report) FeedTierCounts() map[string]int {
	out := map[string]int{}
	r.eachFeedHealth(func(h feed.Health) { out[h.Tier.String()]++ })
	return out
}

// FeedTierMix renders FeedTierCounts in tier order, e.g.
// "fresh:40 lkg:5 prior:3".
func (r *Report) FeedTierMix() string {
	counts := r.FeedTierCounts()
	var parts []string
	for _, tier := range []string{"fresh", "lkg", "forecast", "prior"} {
		if counts[tier] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", tier, counts[tier]))
		}
	}
	return strings.Join(parts, " ")
}

// MeanFeedStaleness averages the staleness age over every feed-slot (0
// when every fetch was fresh).
func (r *Report) MeanFeedStaleness() float64 {
	var sum float64
	var n int
	r.eachFeedHealth(func(h feed.Health) { sum += float64(h.Staleness); n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BreakerOpenSlots counts feed-slots that ended with an open breaker.
func (r *Report) BreakerOpenSlots() int {
	var n int
	r.eachFeedHealth(func(h feed.Health) {
		if h.Breaker == feed.Open {
			n++
		}
	})
	return n
}

func (r *Report) eachFeedHealth(fn func(feed.Health)) {
	for i := range r.Slots {
		for _, h := range r.Slots[i].Feeds.Prices {
			fn(h)
		}
		for _, h := range r.Slots[i].Feeds.Arrivals {
			fn(h)
		}
	}
}

// DeferralTotals sums the run's deferral ledger (rate units, like the
// per-slot ledgers; multiply by the slot length for request counts):
// work newly deferred into the backlog, carried backlog drained by later
// slots, the drained share that had to be force-dispatched at its
// deadline, and deadline misses shed. All zero for slot-myopic planners.
func (r *Report) DeferralTotals() (deferred, drained, forced, shed float64) {
	for i := range r.Slots {
		b := r.Slots[i].Backlog
		if b == nil {
			continue
		}
		deferred += core.Total(b.DeferredNew)
		drained += core.Total(b.Drained)
		forced += core.Total(b.Forced)
		shed += core.Total(b.Shed)
	}
	return deferred, drained, forced, shed
}

// FinalBacklog returns the backlog still buffered after the last slot
// (rate units) — nonzero only when a run ends with deferred work
// stranded, which a properly configured end-of-run truncation
// (mpc.Config.EndSlot) prevents.
func (r *Report) FinalBacklog() float64 {
	if len(r.Slots) == 0 || r.Slots[len(r.Slots)-1].Backlog == nil {
		return 0
	}
	return core.Total(r.Slots[len(r.Slots)-1].Backlog.BacklogOut)
}

// NetProfitSeries returns the per-slot net profit (paper Figs. 4, 6, 8, 10).
func (r *Report) NetProfitSeries() []float64 {
	out := make([]float64, len(r.Slots))
	for i := range r.Slots {
		out[i] = r.Slots[i].NetProfit
	}
	return out
}

// CenterSeries returns the per-slot served count of type k at center l
// (paper Figs. 7 and 9).
func (r *Report) CenterSeries(k, l int) []float64 {
	out := make([]float64, len(r.Slots))
	for i := range r.Slots {
		out[i] = r.Slots[i].CenterServed[k][l]
	}
	return out
}

// buildFeeds assembles the run's feed layer: one price feed per center
// and one arrival feed per front-end, each sourcing the planner-facing
// oracle reading (the plan traces when set, and the legacy observation
// faults, so price blackouts and trace drops compose underneath the feed
// transport), with the trace mean as the default prior — the stand-in for
// the provider's historical telemetry.
func buildFeeds(cfg *Config) (*feed.Set, error) {
	var fc feed.Config
	if cfg.Feeds != nil {
		fc = *cfg.Feeds
	}
	K, S, L := cfg.Sys.K(), cfg.Sys.S(), cfg.Sys.L()
	priceSrc := make([]func(int) float64, L)
	pricePriors := make([]float64, L)
	for l := 0; l < L; l++ {
		l := l
		priceSrc[l] = func(abs int) float64 {
			return cfg.Faults.ObservedPrice(cfg.Prices[l], l, abs)
		}
		_, _, pricePriors[l] = cfg.Prices[l].Stats()
	}
	arrivalSrc := make([]func(int) []float64, S)
	arrivalPriors := make([][]float64, S)
	for s := 0; s < S; s++ {
		s := s
		tr := cfg.Traces[s]
		if cfg.PlanTraces != nil {
			tr = cfg.PlanTraces[s]
		}
		arrivalSrc[s] = func(abs int) []float64 {
			row := make([]float64, K)
			for k := 0; k < K; k++ {
				row[k] = cfg.Faults.ObservedArrival(tr.At(abs, k), s, abs)
			}
			return row
		}
		arrivalPriors[s] = traceMeans(cfg.Traces[s], K)
	}
	return feed.NewSet(fc, cfg.Faults, priceSrc, pricePriors, arrivalSrc, arrivalPriors)
}

// traceMeans returns the per-type mean rate over the whole trace.
func traceMeans(tr *workload.Trace, K int) []float64 {
	out := make([]float64, K)
	n := tr.Slots()
	if n == 0 {
		return out
	}
	for s := 0; s < n; s++ {
		for k := 0; k < K; k++ {
			out[k] += tr.At(s, k)
		}
	}
	for k := 0; k < K; k++ {
		out[k] /= float64(n)
	}
	return out
}

// Run simulates the configured horizon under the given planner. Every
// slot's plan is verified against the physical invariants before it is
// accounted. A planner panic is recovered into an error. A failed slot —
// planner error or infeasible plan — aborts the run unless
// Config.DegradeOnFailure is set, in which case the slot sheds its load
// and the horizon continues; on abort the partial report (every slot
// completed so far) is returned alongside the error so callers can
// post-mortem the run.
func Run(cfg Config, planner core.Planner) (*Report, error) {
	// The per-slot input assembly — fault observation, feed fetches, the
	// effective topology — lives in the InputSource so every plane sees
	// byte-identical planner views (see source.go).
	src, err := NewInputSource(cfg)
	if err != nil {
		return nil, err
	}
	report := &Report{Planner: planner.Name()}
	sc := cfg.Obs
	observed := sc.Enabled()
	src.Attach(planner)

	for slot := 0; slot < cfg.Slots; slot++ {
		abs := cfg.StartSlot + slot
		if observed {
			sc.Counter("sim_slots_total", obs.L("planner", planner.Name())).Add(1)
			sc.Emit(obs.Event{Kind: obs.KindSlotStart, Slot: abs, Planner: planner.Name()})
		}
		view, verr := src.View(abs)
		if verr != nil {
			return report, fmt.Errorf("sim: slot %d: %w", slot, verr)
		}
		view.Health.Notify(planner)
		c := core.Step(planner, view.Plan, view.Actual, view.Distorted)
		if observed {
			sc.Histogram("sim_plan_seconds", nil, obs.L("planner", planner.Name())).
				Observe(c.PlanTime.Seconds())
		}
		in, plan, err := view.Actual, c.Plan, c.Err
		if err != nil {
			if observed {
				sc.Counter("sim_plan_failures_total", obs.L("planner", planner.Name())).Add(1)
				sc.Emit(obs.Event{Kind: obs.KindPlanFailed, Slot: abs, Planner: planner.Name(), Err: err.Error()})
			}
			if !cfg.DegradeOnFailure {
				return report, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
		}
		// A failed slot commits the empty plan: nothing is served and
		// nothing is spent; the foregone value lands in LostRevenue and
		// the horizon continues.
		sr := account(in, plan)
		sr.FallbackTier, sr.FallbackName, sr.Degraded = c.Tier, c.TierName, c.Degraded
		if ledger := c.Backlog; ledger != nil {
			// Deferred work is not lost, merely postponed: under a
			// deferring planner the slot's lost revenue is what the
			// settled ledger says is gone for good.
			sr.Backlog = ledger
			T := in.Sys.Slot()
			sr.LostRevenue = 0
			for k := 0; k < in.Sys.K(); k++ {
				gone := ledger.LostNew[k] + ledger.Shed[k]
				sr.LostRevenue += gone * T * in.Sys.Classes[k].TUF.MaxUtility()
			}
		}
		sr.Slot = abs
		sr.FaultsActive = cfg.Faults.ActiveNames(abs)
		sr.Feeds = view.Health
		if cfg.KeepPlans {
			sr.Plan = plan
		}
		if observed {
			if err == nil {
				sc.Emit(obs.Event{Kind: obs.KindPlanCommitted, Slot: abs, Planner: planner.Name(),
					Tier: sr.FallbackTier, TierName: sr.FallbackName,
					Values: map[string]float64{
						"revenue":      sr.Revenue,
						"energyCost":   sr.EnergyCost,
						"transferCost": sr.TransferCost,
						"netProfit":    sr.NetProfit,
						"serversOn":    float64(sr.ServersOn),
						"offered":      sr.Offered(),
						"served":       sr.Served(),
					}})
			}
			if sr.Degraded {
				sc.Counter("sim_degraded_slots_total", obs.L("planner", planner.Name())).Add(1)
			}
			sc.Gauge("sim_last_net_profit", obs.L("planner", planner.Name())).Set(sr.NetProfit)
			sc.Gauge("sim_servers_on", obs.L("planner", planner.Name())).Set(float64(sr.ServersOn))
			sc.Emit(obs.Event{Kind: obs.KindSlotEnd, Slot: abs, Planner: planner.Name()})
		}
		report.Slots = append(report.Slots, sr)
	}
	return report, nil
}

// account computes the slot's dollar flows from the plan.
func account(in *core.Input, plan *core.Plan) SlotReport {
	sys := in.Sys
	T := sys.Slot()
	K, S, L := sys.K(), sys.S(), sys.L()
	sr := SlotReport{
		Prices:        append([]float64(nil), in.Prices...),
		OfferedByType: make([]float64, K),
		ServedByType:  make([]float64, K),
		CenterServed:  make([][]float64, K),
		ServersOn:     plan.TotalServersOn(),
	}
	for k := 0; k < K; k++ {
		sr.CenterServed[k] = make([]float64, L)
		for s := 0; s < S; s++ {
			sr.OfferedByType[k] += in.Arrivals[s][k] * T
		}
	}
	// Idle draw of powered-on servers (zero under the paper's purely
	// per-request energy model).
	for l := 0; l < L; l++ {
		sr.EnergyCost += sys.IdleCost(l, in.Prices[l]) * float64(plan.ServersOn[l])
	}
	for k := 0; k < K; k++ {
		cls := sys.Classes[k].TUF
		for q := range plan.Rate[k] {
			for l := 0; l < L; l++ {
				lam := plan.CenterRate(k, q, l)
				if lam <= 0 {
					continue
				}
				u := cls.Utility(plan.AchievedDelay(sys, k, q, l))
				sr.Revenue += u * lam * T
				sr.EnergyCost += sys.EnergyCost(k, l, in.Prices[l]) * lam * T
				sr.ServedByType[k] += lam * T
				sr.CenterServed[k][l] += lam * T
				for s := 0; s < S; s++ {
					if v := plan.Rate[k][q][s][l]; v > 0 {
						sr.TransferCost += sys.TransferCost(k, s, l) * v * T
					}
				}
			}
		}
	}
	sr.NetProfit = sr.Revenue - sr.EnergyCost - sr.TransferCost
	for k := 0; k < K; k++ {
		if dropped := sr.OfferedByType[k] - sr.ServedByType[k]; dropped > 0 {
			sr.LostRevenue += dropped * sys.Classes[k].TUF.MaxUtility()
		}
	}
	return sr
}

// Compare runs several planners over the same configuration, one
// goroutine per planner. The configuration is only read; each planner
// instance is driven by exactly one goroutine, so stateful planners (e.g.
// the switching wrapper or a resilient chain) remain safe as long as
// callers pass distinct instances. Fault schedules are shared read-only
// and feed layers are rebuilt per lane with per-(feed, slot) seeded
// randomness, so every lane observes the identical fault and degradation
// sequence — profit deltas are attributable to the planners alone. A
// panicking planner is recovered and reported as that planner's error
// without disturbing the other lanes; the returned slice always holds
// whatever reports (possibly partial) each lane produced, alongside the
// joined per-planner errors.
func Compare(cfg Config, planners ...core.Planner) ([]*Report, error) {
	out := make([]*Report, len(planners))
	errs := make([]error, len(planners))
	var wg sync.WaitGroup
	for i, p := range planners {
		wg.Add(1)
		go func(i int, p core.Planner) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("sim: planner %s panicked: %v", p.Name(), r)
				}
			}()
			out[i], errs[i] = Run(cfg, p)
		}(i, p)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
