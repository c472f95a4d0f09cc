// Package loadgen replays a scenario against the online dispatch plane
// at request granularity: it drives a cluster.Fleet (one replica for a
// lone gateway) slot by slot in virtual time, synthesizes the slot's
// individual arrivals from the scenario's true rates — open-loop Poisson,
// open-loop MMPP bursts (reusing internal/workload's process), or a
// closed loop of think-time users — and reports what the replicas
// actually did against what the plan promised: per-lane achieved vs
// planned rates, shed fractions by reason, and realized vs predicted
// profit.
//
// Realized profit is settled request by request, as the planner's model
// (PAPER.md's Eq. 1) says requests are served: every admitted request
// queues at its center on one of the slot's powered-on servers, each
// (type, level) commodity on a server is a FIFO queue served at the
// commodity's share of the server, and the request earns its type's TUF
// at its own response time. Slot boundaries reset the queues: level
// deadlines are orders of magnitude below a slot, so boundary effects are
// negligible by construction.
package loadgen

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"profitlb/internal/cluster"
	"profitlb/internal/control"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

// Config shapes a replay.
type Config struct {
	// Seed drives the arrival synthesis (one derived stream per
	// (slot, front-end, type), so streams are independent and the whole
	// replay is reproducible).
	Seed int64
	// StartSlot and Slots bound the replayed window.
	StartSlot int
	Slots     int
	// BurstFactor selects the open-loop arrival process: <= 1 is Poisson
	// at the slot's true rate; > 1 is a two-state MMPP with that
	// peak-to-mean ratio (mean preserved), the burstiness the paper's
	// slot-average formulation never sees.
	BurstFactor float64
	// BurstFrontEnd optionally pins the MMPP burst to one front-end: when
	// set, only that front-end's streams burst at BurstFactor, and every
	// other stream keeps plain Poisson statistics — the exact draws a
	// BurstFactor <= 1 replay of the same seed makes. Nil bursts every
	// front-end (the legacy fleet-global behaviour).
	BurstFrontEnd *int
	// Control closes the sub-slot loop: a control.Controller over the
	// fleet samples achieved per-stream rates every
	// SlotLen/control.TicksPerSlot of virtual time and publishes
	// corrective re-scaled tables mid-slot. Arrivals are then
	// replayed in global time order with control ticks interleaved; when
	// the controller never actuates, serving is bit-identical to a
	// control-off replay.
	Control bool
	// Closed switches to a closed loop: Users virtual users per
	// (type, front-end) stream, each issuing a request, waiting the
	// lane's expected delay, thinking Exp(Think), and repeating.
	Closed bool
	// Users is the closed-loop population per stream (default 32).
	Users int
	// Think is the closed-loop mean think time in virtual time units
	// (default: one slot length / 8).
	Think float64
}

// LaneStat compares one lane's achieved traffic with its plan.
type LaneStat struct {
	dispatch.Lane
	// Planned is the lane's budgeted request count λ·T for the slot.
	Planned float64
	// Admitted is the number of requests the gateway served on the lane.
	Admitted int64
	// AchievedRate is Admitted/T, the realized λ.
	AchievedRate float64
	// Demand is the lane's share of the stream's *realized* offered
	// traffic — offered_ks · (λ_i / Σλ_ks) — capped at the lane's MaxRate
	// headroom budget. Under drift (a flash crowd) Planned measures
	// conformance to a stale forecast; Demand is the target a corrective
	// dispatcher should actually track.
	Demand float64
}

// RelErr returns |achieved − planned| / planned (0 for unused lanes).
func (ls *LaneStat) RelErr() float64 {
	if ls.Planned <= 0 {
		return 0
	}
	return math.Abs(float64(ls.Admitted)-ls.Planned) / ls.Planned
}

// DemandErr returns |admitted − demand| / demand (0 for unused lanes):
// how far the lane's serving lagged the traffic actually aimed at it.
func (ls *LaneStat) DemandErr() float64 {
	if ls.Demand <= 0 {
		return 0
	}
	return math.Abs(float64(ls.Admitted)-ls.Demand) / ls.Demand
}

// Counts partitions a set of fired requests by the gateway's answer.
type Counts struct {
	// Offered counts synthesized arrivals; Admitted/ShedBudget/
	// ShedUnplanned/Invalid partition the answers.
	Offered, Admitted, ShedBudget, ShedUnplanned, Invalid int64
}

func (c *Counts) add(o dispatch.Outcome) {
	c.Offered++
	switch o {
	case dispatch.Admitted:
		c.Admitted++
	case dispatch.ShedBudget:
		c.ShedBudget++
	case dispatch.ShedUnplanned:
		c.ShedUnplanned++
	default:
		c.Invalid++
	}
}

// SlotResult is one slot's replay accounting across the fleet: the tallies
// aggregate every replica's answers, and the plan fields, lanes and
// realized economics are the slot's published fleet-wide table's — zero
// during a publisher outage, when there is no table to compare against.
type SlotResult struct {
	Slot int
	Counts
	// Epoch is the slot's published epoch (0 during a publisher outage).
	Epoch uint64
	// Live is how many replicas served the slot; Stale counts live
	// replicas serving a table older than the slot; DegradedReplicas
	// counts live replicas in conservative-shed (stale-TTL) serving.
	Live, Stale, DegradedReplicas int
	// Lanes aligns with the slot table's Lanes.
	Lanes []LaneStat
	// PlannedProfit is the plan's predicted objective for the slot;
	// Degraded and Tier mirror the slot table (resilient fallbacks and
	// emergency shed tables).
	PlannedProfit float64
	Degraded      bool
	Tier          string
	// Actuations counts the controller's published corrections this slot;
	// ControlFrozen reports it froze mid-slot. Both zero without Control.
	Actuations    int
	ControlFrozen bool
	// Revenue/EnergyCost/TransferCost/NetProfit settle the *admitted*
	// requests through their centers' queues: revenue is each request's
	// TUF at its own response time, energy — the powered-on servers' idle
	// draw included — is billed at the slot's true prices, and transfer at
	// the (front-end, center) distance.
	Revenue, EnergyCost, TransferCost, NetProfit float64
	// Classes holds the per-type settled statistics (nil during a
	// publisher outage).
	Classes []ClassSlot
}

// ClassSlot aggregates one request type's settled requests in a slot.
type ClassSlot struct {
	// Served counts the type's admitted requests.
	Served int
	// MeanDelay and MaxDelay are the realized response times of the
	// requests a queue served.
	MeanDelay float64
	MaxDelay  float64
	// DeadlineMisses counts requests finishing after their commodity's
	// level deadline (they earn a lower TUF step, or nothing). A request
	// admitted to a commodity the slot's plan does not serve never
	// finishes: it is a miss and is left out of the delays.
	DeadlineMisses int
}

// ReplicaStat is one replica's lifetime tally as the load generator saw
// it — the ground truth its gateway counters must reconcile against
// exactly (requests the generator never fired cannot appear in a
// gateway, and every fired request must be accounted admitted or shed).
type ReplicaStat struct {
	ID string
	Counts
}

// Report is a whole replay.
type Report struct {
	Replicas int
	Slots    []SlotResult
	// PerReplica carries each replica's lifetime generator-side tallies
	// in fleet order (killed replicas simply stop accruing).
	PerReplica []ReplicaStat
}

// Totals sums the per-slot tallies.
func (r *Report) Totals() (offered, admitted, shed int64) {
	for i := range r.Slots {
		s := &r.Slots[i]
		offered += s.Offered
		admitted += s.Admitted
		shed += s.ShedBudget + s.ShedUnplanned
	}
	return offered, admitted, shed
}

// Invalid sums the invalid answers (must be zero: a fleet under faults
// sheds, it never errors).
func (r *Report) Invalid() int64 {
	var n int64
	for i := range r.Slots {
		n += r.Slots[i].Invalid
	}
	return n
}

// ShedFraction returns total shed / total offered (0 when nothing was
// offered).
func (r *Report) ShedFraction() float64 {
	offered, _, shed := r.Totals()
	if offered == 0 {
		return 0
	}
	return float64(shed) / float64(offered)
}

// BudgetShed counts requests shed by an exhausted token bucket.
func (r *Report) BudgetShed() int64 {
	var n int64
	for i := range r.Slots {
		n += r.Slots[i].ShedBudget
	}
	return n
}

// MaxLaneError returns the worst per-lane |achieved − planned|/planned
// over lanes whose planned slot budget is at least minPlanned requests
// (thin lanes drown in Poisson noise; the 5% acceptance gate uses
// minPlanned ≈ 500).
func (r *Report) MaxLaneError(minPlanned float64) float64 {
	return r.worstLane(minPlanned, func(ls *LaneStat) (size, err float64) { return ls.Planned, ls.RelErr() })
}

// MaxDemandError returns the worst per-lane |admitted − demand|/demand
// over lanes whose realized demand is at least minPlanned requests: the
// drift-aware counterpart of MaxLaneError, measuring how well serving
// tracked the traffic actually offered rather than the forecast.
func (r *Report) MaxDemandError(minPlanned float64) float64 {
	return r.worstLane(minPlanned, func(ls *LaneStat) (size, err float64) { return ls.Demand, ls.DemandErr() })
}

func (r *Report) worstLane(minSize float64, of func(*LaneStat) (size, err float64)) float64 {
	var worst float64
	for i := range r.Slots {
		lanes := r.Slots[i].Lanes
		for j := range lanes {
			if size, e := of(&lanes[j]); size >= minSize && e > worst {
				worst = e
			}
		}
	}
	return worst
}

// Actuations sums the controller's published corrections.
func (r *Report) Actuations() int {
	var n int
	for i := range r.Slots {
		n += r.Slots[i].Actuations
	}
	return n
}

// TotalNetProfit sums the realized per-slot profit.
func (r *Report) TotalNetProfit() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].NetProfit
	}
	return s
}

// TotalPlannedProfit sums the plans' predicted objectives.
func (r *Report) TotalPlannedProfit() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].PlannedProfit
	}
	return s
}

// MissRate returns the fraction of type k's admitted requests that missed
// their commodity's level deadline over the whole run (0 when none were
// admitted).
func (r *Report) MissRate(k int) float64 {
	var served, missed int
	for i := range r.Slots {
		if c := r.Slots[i].Classes; k < len(c) {
			served += c[k].Served
			missed += c[k].DeadlineMisses
		}
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// DegradedSlots counts slots served by a fallback or emergency table.
func (r *Report) DegradedSlots() int {
	var n int
	for i := range r.Slots {
		if r.Slots[i].Degraded {
			n++
		}
	}
	return n
}

// replayer is one replay's state: the validated config, the topology and
// fault schedule the arrivals are synthesized from, the fleet serving
// them, the optional sub-slot controller over it, and the settlement's
// service model.
type replayer struct {
	cfg   Config
	src   *sim.InputSource
	sys   *datacenter.System
	sch   *fault.Schedule
	fleet *cluster.Fleet
	plant *control.FleetPlant
	ctrl  *control.Controller
	// cv is the coefficient of variation of the settlement's service
	// times (serviceSampler): 0, the default, is exponential — the
	// planner's M/M/1 model. Only tests set it, to stress the plan
	// against service distributions the paper's model does not cover.
	cv float64
	// levels are the topology's levelOffsets: commodity (k, q, l) is
	// settled as (levels[k]+q)·L + l.
	levels []int
}

// newReplayer validates and defaults the config; the fleet's first
// replica supplies the topology, dispatch config and scope.
func newReplayer(cfg Config, f *cluster.Fleet, src *sim.InputSource) (*replayer, error) {
	if f == nil || len(f.Replicas) == 0 || src == nil {
		return nil, errors.New("loadgen: need a fleet with replicas and an input source")
	}
	if cfg.Closed && len(f.Replicas) > 1 {
		return nil, errors.New("loadgen: closed-loop replay needs a fleet of one (feedback would need per-replica populations)")
	}
	gw := f.Replicas[0].Gateway()
	sys := gw.System()
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive slot count %d", cfg.Slots)
	}
	if cfg.Closed && cfg.Users == 0 {
		cfg.Users = 32
	}
	if cfg.Closed && cfg.Users < 0 {
		return nil, fmt.Errorf("loadgen: negative closed-loop population %d", cfg.Users)
	}
	// A negative think time walks a user backwards, never to reach T.
	if cfg.Think < 0 || math.IsNaN(cfg.Think) || math.IsInf(cfg.Think, 0) {
		return nil, fmt.Errorf("loadgen: closed-loop think time (-think) %g, want a finite value >= 0", cfg.Think)
	}
	if cfg.BurstFactor < 0 || math.IsNaN(cfg.BurstFactor) {
		return nil, fmt.Errorf("loadgen: burst factor (-burst-factor) %g, want a value >= 0", cfg.BurstFactor)
	}
	if cfg.Think == 0 {
		cfg.Think = sys.Slot() / 8
	}
	if cfg.BurstFrontEnd != nil && (*cfg.BurstFrontEnd < 0 || *cfg.BurstFrontEnd >= sys.S()) {
		return nil, fmt.Errorf("loadgen: burst front-end %d outside [0,%d)", *cfg.BurstFrontEnd, sys.S())
	}
	rp := &replayer{cfg: cfg, src: src, sys: sys, sch: src.Config().Faults, fleet: f,
		plant: &control.FleetPlant{Pub: f.Pub, Replicas: f.Replicas}}
	if cfg.Control {
		rp.ctrl = control.NewController(gw.Config(), rp.plant, gw.Scope())
	}
	rp.levels = levelOffsets(sys)
	return rp, nil
}

// levelOffsets numbers every type's levels in one sequence: type k's
// level q is offsets[k]+q, and offsets[K] counts them all.
func levelOffsets(sys *datacenter.System) []int {
	offsets := make([]int, sys.K()+1)
	for k, c := range sys.Classes {
		offsets[k+1] = offsets[k] + c.TUF.NumLevels()
	}
	return offsets
}

// Run replays cfg.Slots slots against a gateway fleet — a lone gateway
// being a fleet of one. The fleet's driver must plan off src (or a source
// sharing its views): each slot boundary drives the fleet's control plane
// first (heartbeats, sweep, publish, delivery, staleness ticks, observing
// any cluster faults in the fleet's schedule), and the slot's arrivals are
// then synthesized from the same source's view of the *true* rates —
// exactly the split the simulator enforces between planner view and
// settlement. Each arrival is sprayed at one live replica by an
// independent seeded draw (a front-end balancer that knows liveness but
// not plans). The closed loop draws its users' delays from the slot's
// table, so it is refused for fleets larger than one and fails on a slot
// a publisher outage left without one.
func Run(f *cluster.Fleet, src *sim.InputSource, cfg Config) (*Report, error) {
	rp, err := newReplayer(cfg, f, src)
	if err != nil {
		return nil, err
	}
	return rp.run()
}

// run replays the configured window slot by slot.
func (rp *replayer) run() (*Report, error) {
	f := rp.fleet
	rep := &Report{Replicas: len(f.Replicas), PerReplica: make([]ReplicaStat, len(f.Replicas))}
	for i, r := range f.Replicas {
		rep.PerReplica[i].ID = r.ID
	}
	for i := 0; i < rp.cfg.Slots; i++ {
		res, err := rp.slot(rp.cfg.StartSlot+i, float64(i)*rp.sys.Slot(), rep.PerReplica)
		if err != nil {
			return rep, err
		}
		rep.Slots = append(rep.Slots, res)
	}
	return rep, nil
}

// slot replays slot abs from virtual time start: the fleet crosses the
// boundary, every (front-end, type) stream's arrivals are synthesized from
// the true rates in the source's view and fired — stream by stream, or,
// under a controller, merged in global time order with the control ticks
// interleaved — and the answers are tallied per replica into per and
// against the slot's published table. A publisher outage publishes no
// table: the lanes go uncompared and the controller disarms while the
// replicas serve their last fenced epochs.
func (rp *replayer) slot(abs int, start float64, per []ReplicaStat) (SlotResult, error) {
	f := rp.fleet
	res := SlotResult{Slot: abs}
	pub, err := f.BeginSlot(abs, start)
	if err != nil {
		return res, err
	}
	// The balancer sprays at replicas that are alive AND ready — the
	// /readyz condition. A replica partitioned away before it ever
	// applied an epoch has no table; firing at it would turn a cluster
	// fault into Invalid answers instead of the fleet's shed-only
	// degradation.
	var live []int
	liveSet := make([]bool, len(f.Replicas))
	for _, ri := range f.Live(abs) {
		if r := f.Replicas[ri]; r.Ready() {
			live = append(live, ri)
			liveSet[ri] = true
			if r.Staleness() > 0 {
				res.Stale++
			}
			if r.Degraded() {
				res.DegradedReplicas++
			}
		}
	}
	if len(live) == 0 {
		return res, fmt.Errorf("loadgen: slot %d has no live ready replicas", abs)
	}
	res.Live = len(live)
	var table *dispatch.Table
	if pub != nil {
		res.Epoch = pub.Epoch
		if table, err = pub.Decoded(); err != nil {
			return res, err
		}
		res.PlannedProfit, res.Degraded, res.Tier = table.Objective, table.Degraded, table.Tier
	} else if rp.cfg.Closed {
		return res, fmt.Errorf("loadgen: slot %d has no published table to draw the closed loop's delays from (publisher outage)", abs)
	}
	rp.plant.Slot = abs
	rp.plant.Serving = func(i int) bool { return liveSet[i] }
	rp.plant.Reachable = func(i int) bool { return f.Reachable(i, abs) }

	view, err := rp.src.View(abs)
	if err != nil {
		return res, err
	}
	T, K, S, L := rp.sys.Slot(), rp.sys.K(), rp.sys.S(), rp.sys.L()
	// Admissions are keyed by what the answering gateway decided — type,
	// level, front-end, center — not by its lane index: a stale replica's
	// lane indexes its own older table.
	var admitted, streamOffered []int64
	var queues [][]admission
	if table != nil {
		admitted = make([]int64, rp.levels[K]*L*S)
		queues = make([][]admission, rp.levels[K]*L)
		streamOffered = make([]int64, table.K()*table.S())
	}
	// Each stream's spray is seeded independently of its arrivals, so
	// target choice never perturbs arrival times, and drawn in the
	// stream's own arrival order, so a controlled (merged) replay sprays
	// exactly as a stream-by-stream one. A lone live replica needs no draw.
	sprays := make([]*rand.Rand, S*K)
	// Settlement draws come from streams of their own, one per (type,
	// front-end) stream, and every fired request takes its draws, admitted
	// or not: a request keeps its server draw and service time whatever
	// the gateways decide about the others, so two replays of one seed —
	// frozen and controlled, say — settle the same requests alike.
	settles := make([]*rand.Rand, S*K)
	sample := serviceSampler(rp.cv)
	fire := func(k, s int, at float64) {
		ri := live[0]
		if len(live) > 1 {
			spray := sprays[s*K+k]
			if spray == nil {
				spray = rand.New(rand.NewSource(streamSeed(rp.cfg.Seed^0x5eed, abs, s, k)))
				sprays[s*K+k] = spray
			}
			ri = live[spray.Intn(len(live))]
		}
		dec := f.Replicas[ri].Gateway().Handle(k, s, start+at)
		res.add(dec.Outcome)
		per[ri].add(dec.Outcome)
		if table == nil {
			return
		}
		draw := settles[s*K+k]
		if draw == nil {
			draw = rand.New(rand.NewSource(streamSeed(rp.cfg.Seed^0x5e771e, abs, s, k)))
			settles[s*K+k] = draw
		}
		server, work := draw.Float64(), sample(draw, 1)
		if dec.Outcome == dispatch.Admitted {
			c := rp.commodity(k, int(dec.Level), int(dec.Center))
			admitted[c*S+s]++
			queues[c] = append(queues[c], admission{at: at, s: s, server: server, work: work})
		}
	}
	var merged []arrival
	for s, row := range view.Actual.Arrivals {
		for k, rate := range row {
			if rate <= 0 {
				continue
			}
			seed := streamSeed(rp.cfg.Seed, abs, s, k)
			arrivals, err := synthesize(rate, T, seed, &rp.cfg, table, k, s, rp.sch.FlashCrowdFactor(s, abs))
			if err != nil {
				return res, err
			}
			if table != nil && k < table.K() && s < table.S() {
				streamOffered[k*table.S()+s] += int64(len(arrivals))
			}
			for _, at := range arrivals {
				if rp.ctrl != nil {
					merged = append(merged, arrival{at: at, k: k, s: s})
				} else {
					fire(k, s, at)
				}
			}
		}
	}
	if rp.ctrl != nil {
		prevActs := rp.ctrl.Actuations()
		rp.ctrl.BeginSlot(table, start, rp.sch.CenterFactors(L, abs))
		replayControlled(merged, T, start, rp.ctrl, fire)
		res.Actuations = rp.ctrl.Actuations() - prevActs
		res.ControlFrozen = rp.ctrl.Frozen()
	}
	if table == nil {
		return res, nil
	}
	// An admission on a lane the slot's table lacks counts in Admitted
	// and is settled, but shows in no LaneStat.
	res.Lanes = make([]LaneStat, len(table.Lanes))
	for j, ln := range table.Lanes {
		n := admitted[rp.commodity(ln.K, ln.Q, ln.L)*S+ln.S]
		res.Lanes[j] = LaneStat{
			Lane:         ln,
			Planned:      ln.Rate * T,
			Admitted:     n,
			AchievedRate: float64(n) / T,
			Demand:       laneDemand(table, j, streamOffered, T),
		}
	}
	rp.settle(&res, table, admitted, queues, view.Actual.Prices)
	return res, nil
}

// admission is one admitted request awaiting settlement: its instant in
// the slot, the front-end it came through, its server draw in [0, 1) and
// its work — its service time at unit rate (every serviceSampler scales
// as 1/μ).
type admission struct {
	at           float64
	s            int
	server, work float64
}

// commodity numbers (type k, level q, center l) for settlement.
func (rp *replayer) commodity(k, q, l int) int { return (rp.levels[k]+q)*rp.sys.L() + l }

// settle serves the slot's admissions through the centers' queues and
// books the slot's economics into res. admitted[c·S+s] counts commodity
// c's admissions from front-end s; queues[c] holds them in firing order.
// Each commodity's admissions go to the powered-on server their draw
// names and, merged across front-ends and replicas in time order, each
// server serves them FIFO (lindley) at the commodity's per-server rate
// (its lanes' Service) times the center's slow-center factor: a sagging or
// overrun center is simply a slower queue. Every request pays its energy
// at the slot's true price and its transfer, and the powered-on servers
// their idle draw at the same prices.
func (rp *replayer) settle(res *SlotResult, table *dispatch.Table, admitted []int64, queues [][]admission, prices []float64) {
	sys := rp.sys
	S, L := sys.S(), sys.L()
	rates := make([]float64, len(queues)) // 0 for a commodity with no lane
	for _, ln := range table.Lanes {
		rates[rp.commodity(ln.K, ln.Q, ln.L)] = ln.Service
	}
	res.Classes = make([]ClassSlot, sys.K())
	timed := make([]int, sys.K())
	sumDelay := make([]float64, sys.K())
	for k := range sys.Classes {
		cls := sys.Classes[k].TUF
		agg := &res.Classes[k]
		for q := 0; q < cls.NumLevels(); q++ {
			deadline := cls.Level(q).Deadline
			for l := 0; l < L; l++ {
				c := rp.commodity(k, q, l)
				queue := queues[c]
				if len(queue) == 0 {
					continue
				}
				for s := 0; s < S; s++ {
					res.TransferCost += float64(admitted[c*S+s]) * sys.TransferCost(k, s, l)
				}
				res.EnergyCost += float64(len(queue)) * sys.EnergyCost(k, l, prices[l])
				agg.Served += len(queue)
				n := table.ServersOn[l]
				mu := rates[c] * rp.sch.SlowCenterFactor(l, table.Slot)
				if n <= 0 || mu <= 0 {
					agg.DeadlineMisses += len(queue)
					continue
				}
				slices.SortStableFunc(queue, func(a, b admission) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.s, b.s))
				})
				byServer, ends := spread(queue, n)
				i := 0
				for _, end := range ends {
					lindley(func() (float64, bool) {
						if i == end {
							return 0, false
						}
						i++
						return byServer[i-1].at, true
					}, func() float64 { return byServer[i-1].work / mu }, func(delay float64) {
						res.Revenue += cls.Utility(delay)
						timed[k]++
						sumDelay[k] += delay
						agg.MaxDelay = math.Max(agg.MaxDelay, delay)
						if delay > deadline {
							agg.DeadlineMisses++
						}
					})
				}
			}
		}
	}
	for k := range res.Classes {
		if timed[k] > 0 {
			res.Classes[k].MeanDelay = sumDelay[k] / float64(timed[k])
		}
	}
	var idle float64 // billed, like every request's energy, at the true prices
	for l, n := range table.ServersOn {
		idle += sys.IdleCost(l, prices[l]) * float64(n)
	}
	res.EnergyCost += idle
	res.NetProfit = res.Revenue - res.EnergyCost - res.TransferCost
}

// spread groups a commodity's time-ordered admissions by the server their
// draws name (a counting sort, so each group keeps time order) and returns
// the groups with each one's end offset.
func spread(queue []admission, n int) (byServer []admission, ends []int) {
	server := make([]int, len(queue))
	ends = make([]int, n)
	for i, a := range queue {
		server[i] = min(int(a.server*float64(n)), n-1)
		ends[server[i]]++
	}
	next := make([]int, n)
	for j := 1; j < n; j++ {
		ends[j] += ends[j-1]
		next[j] = ends[j-1]
	}
	byServer = make([]admission, len(queue))
	for i, a := range queue {
		byServer[next[server[i]]] = a
		next[server[i]]++
	}
	return byServer, ends
}

// serviceSampler returns a sampler of service times with mean 1/mu and
// coefficient of variation cv, drawing from the rng it is handed: cv ≤ 0
// or exactly 1 draws exponential service (the planner's M/M/1 model);
// 0 < cv < 1 draws Erlang-k (steadier, k = round(1/cv²) capped at 64, so
// the smallest effective cv is 0.125); cv > 1 draws a balanced two-phase
// hyperexponential (burstier).
func serviceSampler(cv float64) func(rng *rand.Rand, mu float64) float64 {
	switch {
	case cv <= 0 || cv == 1:
		return func(rng *rand.Rand, mu float64) float64 { return rng.ExpFloat64() / mu }
	case cv < 1:
		// Erlang-k with k = round(1/cv²): sum of k exponentials at rate kμ.
		k := int(math.Round(1 / (cv * cv)))
		if k < 1 {
			k = 1
		}
		if k > 64 {
			k = 64
		}
		return func(rng *rand.Rand, mu float64) float64 {
			var s float64
			for i := 0; i < k; i++ {
				s += rng.ExpFloat64()
			}
			return s / (float64(k) * mu)
		}
	default:
		// Balanced-means H2: with probability p rate 2pμ, else 2(1−p)μ.
		c2 := cv * cv
		p := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
		return func(rng *rand.Rand, mu float64) float64 {
			if rng.Float64() < p {
				return rng.ExpFloat64() / (2 * p * mu)
			}
			return rng.ExpFloat64() / (2 * (1 - p) * mu)
		}
	}
}

// lindley pushes a stream of requests through one FIFO single-server
// queue — a commodity's CPU share on one server — by the exact recurrence
//
//	depart[i] = max(arrive[i], depart[i-1]) + service[i]
//
// which needs no event list. next yields the arrival instants in
// non-decreasing order and false once the stream has ended; service draws
// one request's service time; visit receives its response time. next runs
// before service, so callers drawing both from one rand.Rand consume it
// arrival first.
func lindley(next func() (arrive float64, ok bool), service func() float64, visit func(delay float64)) {
	var departPrev float64
	for {
		arrive, ok := next()
		if !ok {
			return
		}
		start := arrive
		if departPrev > start {
			start = departPrev
		}
		depart := start + service()
		visit(depart - arrive)
		departPrev = depart
	}
}

// arrival is one synthesized request in a slot's merged replay stream.
type arrival struct {
	at   float64
	k, s int
}

// replayControlled fires the slot's arrivals in global time order with
// controller ticks interleaved at start + j·T/control.TicksPerSlot. The
// merge keeps each stream's arrivals in their original order, so every
// per-stream draw sequence and per-lane bucket trajectory is identical to
// the per-stream nested replay whenever the controller never actuates.
func replayControlled(merged []arrival, T, start float64, ctrl *control.Controller, handle func(k, s int, at float64)) {
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].at != merged[b].at {
			return merged[a].at < merged[b].at
		}
		if merged[a].s != merged[b].s {
			return merged[a].s < merged[b].s
		}
		return merged[a].k < merged[b].k
	})
	dt := T / control.TicksPerSlot
	ei := 0
	// The final tick boundary is the slot end itself: the next BeginSlot
	// supersedes anything it could publish, so it is skipped.
	for j := 1; j < control.TicksPerSlot; j++ {
		for ei < len(merged) && merged[ei].at < float64(j)*dt {
			handle(merged[ei].k, merged[ei].s, merged[ei].at)
			ei++
		}
		ctrl.Tick(start + float64(j)*dt)
	}
	for ; ei < len(merged); ei++ {
		handle(merged[ei].k, merged[ei].s, merged[ei].at)
	}
}

// laneDemand apportions the stream's realized offered count across its
// lanes by planned rate share, capped at the lane's MaxRate budget.
func laneDemand(table *dispatch.Table, j int, streamOffered []int64, T float64) float64 {
	ln := table.Lanes[j]
	planned, _ := table.Planned(ln.K, ln.S)
	if planned <= 0 {
		return 0
	}
	d := float64(streamOffered[ln.K*table.S()+ln.S]) * ln.Rate / planned
	if ln.MaxRate > 0 {
		if lim := ln.MaxRate * T; d > lim {
			d = lim
		}
	}
	return d
}

// streamSeed derives the arrival-synthesis seed for one (slot, s, k)
// stream: SplitMix64 over the user seed, then over each coordinate in
// turn. The seed is mixed before any coordinate joins it, so two seeds
// never share a stream, whatever slots they play.
func streamSeed(seed int64, abs, s, k int) int64 {
	x := workload.SplitMix64(uint64(seed))
	for _, v := range [3]uint64{uint64(int64(abs)), uint64(s), uint64(k)} {
		x = workload.SplitMix64(x ^ v)
	}
	return int64(x >> 1) // non-negative for rand.NewSource
}

// synthesize produces the stream's arrival offsets in [0, T), sorted.
// flash > 1 is an active flash-crowd fault on the stream's front-end: a
// mean-increasing MMPP whose calm state runs at the planned (forecast)
// rate and whose burst state runs at flash× it — realized demand then
// exceeds every committed plan, unlike the mean-preserving BurstFactor
// process.
func synthesize(rate, T float64, seed int64, cfg *Config, table *dispatch.Table, k, s int, flash float64) ([]float64, error) {
	switch {
	case cfg.Closed:
		return closedLoop(rate, T, seed, cfg, table, k, s), nil
	case flash > 1:
		p := workload.MMPP{
			RateLow:  rate,
			RateHigh: rate * flash,
			MeanLow:  T / 8,
			MeanHigh: T / 8,
		}
		return p.Arrivals(T, seed)
	case cfg.BurstFactor > 1 && (cfg.BurstFrontEnd == nil || *cfg.BurstFrontEnd == s):
		f := cfg.BurstFactor
		p := workload.MMPP{
			RateLow:  2 * rate / (1 + f),
			RateHigh: 2 * rate * f / (1 + f),
			MeanLow:  T / 8,
			MeanHigh: T / 8,
		}
		return p.Arrivals(T, seed)
	default:
		return poisson(rate, T, seed), nil
	}
}

// poisson generates a homogeneous Poisson stream at the given rate.
func poisson(rate, T float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, int(rate*T)+16)
	for t := rng.ExpFloat64() / rate; t < T; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}

// closedLoop simulates cfg.Users users on the stream: each issues a
// request, experiences the plan's expected delay for the (k, s) stream
// (the dispatch-rate-weighted mean over the stream's lanes — the users
// do not know which lane the gateway will draw), thinks Exp(Think), and
// repeats until the slot ends. The offered rate is therefore
// Users/(delay+Think) per stream, independent of the planned rate: a
// genuinely closed feedback loop.
func closedLoop(rate, T float64, seed int64, cfg *Config, table *dispatch.Table, k, s int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	// Expected response: rate-weighted lane delay for the stream.
	var wsum, dsum float64
	for _, ln := range table.Lanes {
		if ln.K == k && ln.S == s {
			wsum += ln.Rate
			dsum += ln.Rate * ln.Delay
		}
	}
	delay := 0.0
	if wsum > 0 {
		delay = dsum / wsum
	}
	next := make([]float64, cfg.Users)
	for u := range next {
		// Users phase in over the first think interval.
		next[u] = rng.ExpFloat64() * cfg.Think
	}
	var out []float64
	for {
		best := -1
		for u, t := range next {
			if t < T && (best < 0 || t < next[best]) {
				best = u
			}
		}
		if best < 0 {
			break
		}
		t := next[best]
		out = append(out, t)
		next[best] = t + delay + rng.ExpFloat64()*cfg.Think
	}
	return out
}
