package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/lp"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
)

// traceCtl is the switch the timing decorators share: with tr nil they
// forward and record nothing, so one planner stack serves the untraced
// and the traced segment of a --trace 1 run. A --trace 0 run builds no
// decorators at all.
type traceCtl struct {
	tr       *tracer
	counting bool
	// calls are the (input, plan) pairs of the inner planner's Plan calls
	// during the current traced op, for the beside-the-commit layer probe.
	calls []planCall
	// stats receives core.SearchStats after each inner Plan call; sum
	// accumulates them over the first countOps traced ops — a fixed
	// prefix, so the per-op counts repeat exactly for a seed however many
	// ops the time budget fits.
	stats      core.SearchStats
	sum        core.SearchStats
	countedOps int
}

// countOps is the length of the counted prefix of the traced segment.
const countOps = 10

// beginOp opens one traced op: it clears the recorded calls and reports
// whether the op falls in the counted prefix.
func (c *traceCtl) beginOp() {
	c.calls = c.calls[:0]
	if c.countedOps < countOps {
		c.countedOps++
		c.counting = true
	} else {
		c.counting = false
	}
}

type planCall struct {
	in   *core.Input
	plan *core.Plan
}

// timedPlanner decorates the core planner handed to resilient.Wrap.
type timedPlanner struct {
	inner core.Planner
	ctl   *traceCtl
}

func (p *timedPlanner) Name() string         { return p.inner.Name() }
func (p *timedPlanner) Unwrap() core.Planner { return p.inner }

func (p *timedPlanner) Plan(in *core.Input) (*core.Plan, error) {
	if p.ctl.tr == nil {
		return p.inner.Plan(in)
	}
	id := p.ctl.tr.begin("core.plan", in.Slot)
	plan, err := p.inner.Plan(in)
	p.ctl.tr.end(id)
	if err == nil {
		p.ctl.calls = append(p.ctl.calls, planCall{in, plan})
	}
	if p.ctl.counting {
		st, sum := &p.ctl.stats, &p.ctl.sum
		sum.Solves += st.Solves
		sum.CacheHits += st.CacheHits
		sum.WarmHits += st.WarmHits
		sum.WarmFallbacks += st.WarmFallbacks
		sum.WarmPivots += st.WarmPivots
		sum.ColdPivots += st.ColdPivots
		sum.SparseSolves += st.SparseSolves
		sum.AbandonedPivots += st.AbandonedPivots
	}
	return plan, err
}

// timedChain decorates the resilient chain itself; embedding keeps
// FallbackState, ObserveFeedHealth, Name and Unwrap reachable for the
// driver and the simulator. It is also paper-day's lap clock, the one
// instrument an untraced run carries: sim.Run is a single call, and the
// moments its slots' Plan calls begin are the only boundaries visible
// from outside to cut a day into slots at (one time.Now per ~0.5 ms slot).
type timedChain struct {
	*resilient.Chain
	ctl     *traceCtl // nil in an untraced run
	entries []time.Time
}

func (c *timedChain) Plan(in *core.Input) (*core.Plan, error) {
	c.entries = append(c.entries, time.Now())
	if c.ctl == nil || c.ctl.tr == nil {
		return c.Chain.Plan(in)
	}
	id := c.ctl.tr.begin("resilient.plan", in.Slot)
	plan, err := c.Chain.Plan(in)
	c.ctl.tr.end(id)
	return plan, err
}

// timedSource decorates the dispatch.PlanSource of a fleet driver.
type timedSource struct {
	inner dispatch.PlanSource
	ctl   *traceCtl
}

func (s *timedSource) PlannerInput(abs int) (*core.Input, error) {
	if s.ctl.tr == nil {
		return s.inner.PlannerInput(abs)
	}
	id := s.ctl.tr.begin("sim.input", abs)
	in, err := s.inner.PlannerInput(abs)
	s.ctl.tr.end(id)
	return in, err
}

// newChain builds the planner stack a workload runs: the optimizer with
// the defaults core.NewOptimized gives (refine switched off only for
// fleet-large, see README), under the default resilient ladder. With a
// ctl the inner planner's timing decorator is threaded in.
func newChain(refine bool, ctl *traceCtl) (*resilient.Chain, *core.Optimized) {
	opt := core.NewOptimized()
	if !refine {
		opt.Refine = false
	}
	if ctl == nil {
		return resilient.Wrap(opt), opt
	}
	opt.Stats = &ctl.stats
	return resilient.Wrap(&timedPlanner{inner: opt, ctl: ctl}), opt
}

// coldPlanner is the reference the sampled correctness checks re-plan
// with: no warm start (so no sparse path either), every LP solved from
// scratch on the dense tableau.
func coldPlanner(refine bool) *core.Optimized {
	opt := core.NewOptimized()
	opt.WarmStart = false
	opt.Refine = refine
	return opt
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// lap is one timed stretch of an op and the phase of the day it belongs
// to: phases 0..daySlots-1 are the day's slots, phase daySlots collects
// what an op spends outside any slot.
type lap struct {
	phase int
	dur   time.Duration
}

// opOutcome is what one timed operation reports.
type opOutcome struct {
	laps   []lap   // a fleet commit is one lap; a paper day is a head lap and one per slot
	profit float64 // dollars the op earned or committed
	bad    int     // failed sub-operations (degraded slots, ...)
}

func (o *opOutcome) total() time.Duration {
	var d time.Duration
	for _, l := range o.laps {
		d += l.dur
	}
	return d
}

// slotWorkload is one of the three slot-commit workloads.
type slotWorkload interface {
	// setup builds the topology, the planner stack and everything the
	// program keeps warm (slot 0 / warm-up days). Its wall time is setup_s.
	setup() error
	// op runs one operation; tr is nil outside the traced segment.
	op(tr *tracer) (opOutcome, error)
	// daySlots is the length of the day the workload replays, opsPerDay
	// how many ops replay it once.
	daySlots() int
	opsPerDay() int
	// verify runs the correctness checks that are too expensive to sit
	// beside the timed loop; it returns one line per violated check.
	verify() []string
	// layers derives the per-layer metrics from the traced segment's
	// spans and floors.
	layers(tr *tracer, fl *floors, m metrics)
}

// floors keeps, per phase of the day, the shortest of all the repeats of
// that phase's (identical, deterministic) work.
//
// The box this benchmark runs on is a small shared VM on which a
// neighbour on the sibling hyperthread slows throughput-bound code by up
// to 2×, for anything from a millisecond to minutes at a time: over ten
// runs the median of one fixed computation swung by 40 % and its 90th
// percentile by 75 %, and scaling by an interleaved reference kernel
// still left 5–30 %. Interference only ever adds time, so the floor over
// many repeats of the same few milliseconds of work is the one statistic
// that measures the program instead of the neighbours (3–7 % over the
// same runs). Every bounded timing of an operation is therefore a floor
// (set-ups, too long and too few for one, are metered instead: see
// meter.go); what contention made of the run — raw percentiles, CPU per
// op — is reported beside it, unbounded. What a floor cannot see is cost
// that lands on only some repeats of a phase: garbage collection above
// all, which is why allocation counts and peak memory are reported too.
type floors struct {
	ms      []float64
	repeats []int
}

func (f *floors) add(l lap) {
	for len(f.ms) <= l.phase {
		f.ms = append(f.ms, 0)
		f.repeats = append(f.repeats, 0)
	}
	ms := float64(l.dur) / 1e6
	if f.repeats[l.phase] == 0 || ms < f.ms[l.phase] {
		f.ms[l.phase] = ms
	}
	f.repeats[l.phase]++
}

// sumMS adds up every phase's floor: the quiet-box time of one pass over
// all the phases (for a slot workload, one whole day with its per-op
// overhead).
func (f *floors) sumMS() float64 {
	var sum float64
	for _, ms := range f.ms {
		sum += ms
	}
	return sum
}

// minRepeats is the thinnest sample behind any phase's floor.
func (f *floors) minRepeats() int {
	n := 0
	for _, r := range f.repeats {
		if r > 0 && (n == 0 || r < n) {
			n = r
		}
	}
	return n
}

// segment is the tally of a run of timed operations.
type segment struct {
	floors
	opMS    []float64 // per op, as measured (contention included)
	profits []float64
	bad     int

	cpuS    float64 // process user+sys CPU over the segment
	mallocs uint64
	allocB  uint64
	numGC   uint32
	pauseNS uint64
}

// runSegment repeats w.op until the budget of wall time is spent, and for
// at least one whole day so that every phase has a floor. The wall clock
// includes the per-op checks and, when traced, the layer probe.
func runSegment(w slotWorkload, tr *tracer, budget time.Duration) (*segment, error) {
	seg := &segment{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0, s0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for len(seg.opMS) < w.opsPerDay() || time.Since(begin) < budget {
		out, err := w.op(tr)
		if err != nil {
			return nil, err
		}
		for _, l := range out.laps {
			seg.add(l)
		}
		seg.opMS = append(seg.opMS, float64(out.total())/1e6)
		seg.profits = append(seg.profits, out.profit)
		seg.bad += out.bad
	}
	u1, s1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	seg.cpuS = u1 + s1 - u0 - s0
	runtime.ReadMemStats(&ms1)
	seg.mallocs = ms1.Mallocs - ms0.Mallocs
	seg.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	seg.numGC = ms1.NumGC - ms0.NumGC
	seg.pauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return seg, nil
}

// timeSetups runs complete set-ups — five, and up to twenty-five while
// they add up to under a second — with a meter reading before and after
// each, and returns the median set-up time in seconds at the box's quiet
// speed (see meter). discard tears a set-up down before the next one,
// outside the clock; the last set-up is the one the run measures on.
func timeSetups(smoke bool, setup func() error, discard func()) (float64, error) {
	var secs []float64
	m := newMeter()
	m.read()
	begin := time.Now()
	for reps := 0; reps < 5 || (reps < 25 && time.Since(begin) < time.Second); reps++ {
		if reps > 0 {
			discard()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		m.read()
		if smoke {
			break
		}
	}
	return median(secs) / m.slowdown(), nil
}

// runSlotWorkload is the driver shared by paper-day, fleet-refine-mid and
// fleet-large: repeated set-up, the untraced segment the end-to-end
// metrics come from, and — with o.trace — a traced segment for the
// per-layer metrics.
func runSlotWorkload(o *options, build func(ctl *traceCtl) slotWorkload) (*result, error) {
	res := newResult()
	var ctl *traceCtl
	if o.trace {
		ctl = &traceCtl{}
	}
	var w slotWorkload
	setupS, err := timeSetups(o.smoke, func() error {
		w = build(ctl)
		return w.setup()
	}, func() {
		// A discarded set-up must not bill its garbage to the next one, to
		// the first ops or to peak_rss_mb: the process is measured as if
		// it had set up once.
		w = nil
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: peak_rss_mb includes the discarded set-ups: %v\n", err)
		}
	})
	if err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2 // the other half goes to the traced segment
	}
	seg, err := runSegment(w, nil, budget)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	ops := len(seg.opMS)
	day := w.daySlots()
	slotsPerOp := day / w.opsPerDay()
	res.attempted = ops * slotsPerOp
	res.failed = seg.bad
	res.samples = ops
	// Profit is the first whole day's, so for one seed it repeats exactly
	// however many ops the time budget fits.
	var profit float64
	for _, v := range seg.profits[:w.opsPerDay()] {
		profit += v
	}

	if !o.trace {
		res.e2e("setup_s", setupS, "s")
		res.e2e("ops_per_s", float64(day)/seg.sumMS()*1e3, "1/s")
		res.e2e("op_p50_ms", median(seg.ms[:day]), "ms")
		res.e2e("op_p90_ms", percentile(seg.ms[:day], 90), "ms")
		res.e2e("peak_rss_mb", rss, "MB")
		res.e2e("profit_usd_per_slot", profit/float64(day), "usd")
	} else {
		m := res.layers
		n := float64(res.attempted)
		m.set("op.raw_p50_ms", median(seg.opMS)/float64(slotsPerOp), "ms")
		m.set("op.raw_p90_ms", percentile(seg.opMS, 90)/float64(slotsPerOp), "ms")
		m.set("op.raw_p99_ms", percentile(seg.opMS, 99)/float64(slotsPerOp), "ms")
		m.set("op.floor_repeats", float64(seg.minRepeats()), "count")
		m.set("box.slowdown", mean(seg.opMS)*float64(w.opsPerDay())/seg.sumMS(), "ratio")
		m.set("slot.cpu_ms_per_op", seg.cpuS*1e3/n, "ms")
		m.set("slot.allocs_per_op", float64(seg.mallocs)/n, "count")
		m.set("slot.alloc_kb_per_op", float64(seg.allocB)/1024/n, "kB")
		m.set("runtime.num_gc", float64(seg.numGC), "count")
		m.set("runtime.gc_pause_total_ms", float64(seg.pauseNS)/1e6, "ms")

		tr := newTracer(day)
		ctl.tr = tr
		tseg, err := runSegment(w, tr, budget)
		ctl.tr = nil
		if err != nil {
			return nil, err
		}
		res.attempted += len(tseg.opMS) * slotsPerOp
		res.failed += tseg.bad
		m.set("trace.overhead_pct", 100*(tseg.sumMS()-seg.sumMS())/seg.sumMS(), "%")
		w.layers(tr, &tseg.floors, m)
		if err := tr.write(o.outPath(o.workload + ".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	res.problems = append(res.problems, w.verify()...)
	if res.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d slots degraded, off the primary tier or unverifiable", res.failed, res.attempted))
	}
	return res, nil
}

// layerProbe times, beside the commit and on the same slot input and
// plan, the exported layer functions a commit calls internally where the
// benchmark cannot put a decorator: model build, LP re-solve, Verify,
// Compile, wire encode/decode, Subdivide and Install.
type layerProbe struct {
	opts     lp.Options
	dcfg     dispatch.Config
	replicas int
	gw       *dispatch.Gateway
	hot      lp.Solver // one retained basis, re-solved slot after slot
	// coldEvery spaces the sampled from-scratch solves: they cost up to
	// ~0.4 s at fleet-large size, so every probe cannot afford one.
	coldEvery time.Duration
	lastCold  time.Time

	rows, cols int
	wireBytes  []float64
}

func newLayerProbe(w *core.Optimized, dcfg dispatch.Config, replicas int, seconds float64) *layerProbe {
	// The options the planner itself solves with (Optimized.lpOpts).
	opts := w.LPOpts
	if w.Sparse {
		opts.Sparse = true
	}
	if replicas < 1 {
		replicas = 1
	}
	return &layerProbe{
		opts: opts, dcfg: dcfg, replicas: replicas,
		coldEvery: time.Duration(seconds / 4 * float64(time.Second)),
	}
}

func (p *layerProbe) run(tr *tracer, c planCall, now float64) error {
	slot := c.in.Slot
	root := tr.begin("probe", slot)
	defer tr.end(root)

	id := tr.begin("core.model_build", slot)
	model, err := core.DispatchModel(c.in)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: DispatchModel: %w", err)
	}
	p.rows, p.cols = model.NumConstraints(), model.NumVariables()

	if time.Since(p.lastCold) >= p.coldEvery {
		p.lastCold = time.Now()
		var fresh lp.Solver
		id = tr.begin("lp.solve_cold", slot)
		_, err = fresh.SolveWarm(model, nil, p.opts)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe: cold solve: %w", err)
		}
	}
	// The first call arms the retained basis; every later one is the hot
	// re-solve a one-LP slot pays. The span is named by the path taken.
	start := tr.begin("lp.solve", slot)
	_, err = p.hot.SolveWarm(model, nil, p.opts)
	tr.end(start)
	if err != nil {
		return fmt.Errorf("probe: warm solve: %w", err)
	}
	if out := p.hot.LastOutcome(); out.Path == "hot" && !out.FellBack {
		tr.spans[start].Name = "lp.solve_hot"
	}

	id = tr.begin("core.verify", slot)
	err = core.Verify(c.in, c.plan, 1e-6)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: Verify: %w", err)
	}
	id = tr.begin("dispatch.compile", slot)
	tab, err := dispatch.Compile(c.in, c.plan, p.dcfg)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: Compile: %w", err)
	}
	id = tr.begin("dispatch.wire", slot)
	wire := tab.Wire()
	tr.end(id)
	id = tr.begin("dispatch.wire_json", slot)
	body, err := json.Marshal(wire)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: wire JSON: %w", err)
	}
	p.wireBytes = append(p.wireBytes, float64(len(body)))
	id = tr.begin("dispatch.fromwire", slot)
	full, err := dispatch.FromWire(wire)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: FromWire: %w", err)
	}
	id = tr.begin("dispatch.subdivide", slot)
	sub, err := full.Subdivide(0, p.replicas, p.dcfg)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: Subdivide: %w", err)
	}
	if p.gw == nil {
		p.gw = dispatch.NewGateway(c.in.Sys, p.dcfg, nil)
	}
	id = tr.begin("dispatch.install", slot)
	p.gw.Install(sub, now, 0)
	tr.end(id)
	return nil
}

// layers writes the probe's floors and the planner-engine counts.
func (p *layerProbe) layers(tr *tracer, ctl *traceCtl, slotsPerOp int, m metrics) {
	for _, name := range []string{"core.model_build", "lp.solve_hot", "lp.solve_cold", "core.verify",
		"dispatch.compile", "dispatch.wire", "dispatch.wire_json", "dispatch.fromwire",
		"dispatch.subdivide", "dispatch.install", "feed.fetch", "sim.input", "resilient.plan", "core.plan"} {
		m.set(name+"_us", tr.floorUS(name), "us")
	}
	m.set("resilient.self_us", m.get("resilient.plan_us")-m.get("core.plan_us"), "us")
	// Valid where a slot is one LP (fleet-large): what Plan spends outside
	// building the model and re-solving it — plan extraction above all.
	m.set("core.plan_other_us", m.get("core.plan_us")-m.get("core.model_build_us")-m.get("lp.solve_hot_us"), "us")
	m.set("dispatch.wire_bytes", median(p.wireBytes), "B")
	m.set("lp.rows", float64(p.rows), "count")
	m.set("lp.cols", float64(p.cols), "count")
	per := func(v int64) float64 { return float64(v) / float64(ctl.countedOps*slotsPerOp) }
	m.set("core.lp_solves", per(ctl.sum.Solves), "count")
	m.set("core.cache_hits", per(ctl.sum.CacheHits), "count")
	if tot := ctl.sum.Solves + ctl.sum.CacheHits; tot > 0 {
		m.set("core.cache_hit_ratio", float64(ctl.sum.CacheHits)/float64(tot), "ratio")
	}
	m.set("core.sparse_solves", per(ctl.sum.SparseSolves), "count")
	m.set("core.warm_hits", per(ctl.sum.WarmHits), "count")
	m.set("core.warm_fallbacks", per(ctl.sum.WarmFallbacks), "count")
	m.set("lp.warm_pivots", per(ctl.sum.WarmPivots), "count")
	m.set("lp.cold_pivots", per(ctl.sum.ColdPivots), "count")
	m.set("lp.abandoned_pivots", per(ctl.sum.AbandonedPivots), "count")
}

// ---------------------------------------------------------------------
// paper-day

// paperDay is the offline workload: one op is sim.Run over the 24 hourly
// slots of the Section VI system, on a planner stack kept warm across
// days exactly as a long-lived library caller keeps it.
type paperDay struct {
	o       *options
	ctl     *traceCtl
	cfg     sim.Config
	planner *timedChain
	opt     *core.Optimized
	probe   *layerProbe

	days      int
	dayProfit float64 // first timed day's net profit; every day must match
	drift     float64 // worst relative day-to-day profit difference seen
	tracedOps int
}

// paperWarmupDays fills the planner's retained bases before timing.
const paperWarmupDays = 3

func (w *paperDay) daySlots() int  { return paperDaySlots }
func (w *paperDay) opsPerDay() int { return 1 }

func (w *paperDay) setup() error {
	w.cfg = paperConfig(w.o.seed, 1)
	chain, opt := newChain(true, w.ctl)
	w.planner, w.opt = &timedChain{Chain: chain, ctl: w.ctl}, opt
	for i := 0; i < paperWarmupDays; i++ {
		if _, err := sim.Run(w.cfg, w.planner); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperDay) op(tr *tracer) (opOutcome, error) {
	if tr != nil {
		w.ctl.beginOp()
	}
	w.planner.entries = w.planner.entries[:0]
	id := tr.begin("sim.day", w.days)
	start := time.Now()
	rep, err := sim.Run(w.cfg, w.planner)
	end := time.Now()
	tr.end(id)
	if err != nil {
		return opOutcome{}, err
	}
	// Cut the day at the moments its slots' Plan calls began: what
	// precedes the first is per-day overhead, and slot t runs until slot
	// t+1's planning begins (its settlement and the next input assembly
	// included) or the day ends.
	at := w.planner.entries
	if len(at) != paperDaySlots {
		return opOutcome{}, fmt.Errorf("day %d: the simulator planned %d times, want %d", w.days, len(at), paperDaySlots)
	}
	out := opOutcome{profit: rep.TotalNetProfit(), bad: rep.DegradedSlots()}
	out.laps = append(out.laps, lap{paperDaySlots, at[0].Sub(start)})
	for t := range at {
		next := end
		if t+1 < len(at) {
			next = at[t+1]
		}
		out.laps = append(out.laps, lap{t, next.Sub(at[t])})
	}
	for i := range rep.Slots {
		if rep.Slots[i].FallbackTier > 0 {
			out.bad++
		}
	}
	if w.days == 0 {
		w.dayProfit = out.profit
	}
	w.drift = math.Max(w.drift, relDiff(out.profit, w.dayProfit))
	w.days++
	if tr == nil {
		return out, nil
	}
	// Probe one day in ten: 24 probes a day would make the traced
	// segment mostly probe, and the floors settle long before that.
	w.tracedOps++
	if w.tracedOps%10 != 1 {
		return out, nil
	}
	if w.probe == nil {
		w.probe = newLayerProbe(w.opt, dispatch.Config{}.WithDefaults(), 1, w.o.seconds)
	}
	// sim.Run owns its input source, so the per-slot input assembly and
	// the feed fetch are timed on fresh sources walked in slot order.
	inSrc, err := sim.NewInputSource(w.cfg)
	if err != nil {
		return out, err
	}
	feedSrc, err := sim.NewInputSource(w.cfg)
	if err != nil {
		return out, err
	}
	for _, c := range w.ctl.calls {
		id := tr.begin("sim.input", c.in.Slot)
		_, err := inSrc.PlannerInput(c.in.Slot)
		tr.end(id)
		if err != nil {
			return out, err
		}
		id = tr.begin("feed.fetch", c.in.Slot)
		feedSrc.Feeds().FetchSlot(c.in.Slot)
		tr.end(id)
		if err := w.probe.run(tr, c, float64(c.in.Slot)); err != nil {
			return out, err
		}
		if got := core.PlanObjective(c.in, c.plan); relDiff(got, c.plan.Objective) > 1e-9 {
			return out, fmt.Errorf("slot %d: PlanObjective %v differs from Plan.Objective %v", c.in.Slot, got, c.plan.Objective)
		}
	}
	return out, nil
}

func (w *paperDay) layers(tr *tracer, fl *floors, m metrics) {
	if w.probe == nil {
		return
	}
	w.probe.layers(tr, w.ctl, paperDaySlots, m)
	// Per slot: everything sim.Run does that is not the planner chain —
	// input assembly, Verify, reconcile, accounting, report building. From
	// the laps' floors, not the sim.day span's: a whole day is too long a
	// unit to ever run undisturbed.
	m.set("sim.accounting_us", fl.sumMS()*1e3/paperDaySlots-m.get("resilient.plan_us"), "us")
	m.set("trace.self_sum_ratio", tr.selfSumRatio("sim.day"), "ratio")
}

func (w *paperDay) verify() []string {
	var bad []string
	if w.drift > 1e-9 {
		bad = append(bad, fmt.Sprintf("day-to-day net profit drifts by %.3g relative (limit 1e-9)", w.drift))
	}
	// One more day with plans kept: every slot must agree with a cold
	// dense re-plan of the same input on objective.
	cfg := w.cfg
	cfg.KeepPlans = true
	rep, err := sim.Run(cfg, w.planner)
	if err != nil {
		return append(bad, "check day: "+err.Error())
	}
	src, err := sim.NewInputSource(w.cfg)
	if err != nil {
		return append(bad, "check day: "+err.Error())
	}
	cold := coldPlanner(true)
	for i := range rep.Slots {
		sr := &rep.Slots[i]
		in, err := src.PlannerInput(sr.Slot)
		if err != nil {
			return append(bad, "check day: "+err.Error())
		}
		ref, err := cold.Plan(in)
		if err != nil {
			return append(bad, fmt.Sprintf("slot %d: cold re-plan: %v", sr.Slot, err))
		}
		if d := relDiff(sr.Plan.Objective, ref.Objective); d > 1e-6 {
			bad = append(bad, fmt.Sprintf("slot %d: objective %v vs cold dense %v (%.3g relative)", sr.Slot, sr.Plan.Objective, ref.Objective, d))
		}
		if got := core.PlanObjective(in, sr.Plan); relDiff(got, sr.Plan.Objective) > 1e-9 {
			bad = append(bad, fmt.Sprintf("slot %d: PlanObjective %v differs from Plan.Objective %v", sr.Slot, got, sr.Plan.Objective))
		}
	}
	return bad
}

// ---------------------------------------------------------------------
// fleet-refine-mid, fleet-large

// fleetSize parameterizes the two online slot-commit workloads.
type fleetSize struct {
	K, L, S, replicas int
	refine            bool
	// checkEvery spaces the sampled cold re-plan checks; maxChecks caps
	// them, because one cold re-plan costs a multiple of a timed slot.
	checkEvery, maxChecks int
}

// fleetWorkload is the online slot commit: one op is the whole slot
// boundary — feed fetch, plan, verify, compile, wire, and delivery to
// every replica — through cluster.Fleet.BeginSlot.
type fleetWorkload struct {
	o    *options
	ctl  *traceCtl
	size fleetSize

	cfg      sim.Config
	dcfg     dispatch.Config
	opt      *core.Optimized
	fleet    *cluster.Fleet
	checkSrc *sim.InputSource // replays sampled slots' inputs for verify()
	feedSrc  *sim.InputSource // feed.fetch probe
	probe    *layerProbe

	slot      int
	samples   []planCall // input + a plan carrying only the committed objective
	problems  []string
	tracedOps int
}

func (w *fleetWorkload) daySlots() int  { return synthDaySlots }
func (w *fleetWorkload) opsPerDay() int { return synthDaySlots }

func (w *fleetWorkload) setup() error {
	if w.o.smoke { // one cold re-plan is enough to exercise the check
		w.size.maxChecks = 1
	}
	sys := synthSystem(w.size.K, w.size.L, w.size.S)
	w.cfg = synthConfig(sys, w.o.seed)
	w.dcfg = dispatch.Config{}.WithDefaults()
	src, err := sim.NewInputSource(w.cfg)
	if err != nil {
		return err
	}
	chain, opt := newChain(w.size.refine, w.ctl)
	w.opt = opt
	// An untraced run carries no decorator at all.
	var planner core.Planner = chain
	var source dispatch.PlanSource = src
	if w.ctl != nil {
		planner = &timedChain{Chain: chain, ctl: w.ctl}
		source = &timedSource{inner: src, ctl: w.ctl}
	}
	drv := &dispatch.Driver{Gateway: dispatch.NewGateway(sys, w.dcfg, nil), Planner: planner, Source: source}
	w.fleet, err = cluster.NewFleet(sys, w.dcfg, cluster.Config{Replicas: w.size.replicas}, drv, nil, nil)
	if err != nil {
		return err
	}
	if w.checkSrc, err = sim.NewInputSource(w.cfg); err != nil {
		return err
	}
	// Slot 0 joins every replica, solves cold and arms the warm chain.
	w.slot = 0
	_, err = w.commit(nil)
	return err
}

// commit advances the fleet one slot and applies the cheap per-slot
// checks. Only the commit itself is timed.
func (w *fleetWorkload) commit(tr *tracer) (opOutcome, error) {
	abs := w.slot
	now := float64(abs) * w.cfg.Sys.Slot()
	var pub *cluster.Publication
	var err error
	start := time.Now()
	if tr == nil {
		pub, err = w.fleet.BeginSlot(abs, now)
	} else {
		pub, err = w.tracedSlot(tr, abs, now)
	}
	out := opOutcome{laps: []lap{{abs % synthDaySlots, time.Since(start)}}}
	if err != nil {
		return out, err
	}
	w.slot++
	if pub == nil || pub.Table == nil {
		return out, fmt.Errorf("slot %d: no publication", abs)
	}
	out.profit = pub.Table.Objective
	if pub.Table.Degraded || pub.Table.Tier != "" {
		out.bad = 1
		w.note("slot %d: degraded publication (tier %q)", abs, pub.Table.Tier)
	}
	if abs%50 == 0 {
		w.checkReplicas(pub)
	}
	// The first timed slot is always sampled, so even a run too short to
	// reach the spacing checks one.
	if (abs == 1 || abs%w.size.checkEvery == 0) && abs > 0 && len(w.samples) < w.size.maxChecks {
		in, err := w.checkSrc.PlannerInput(abs)
		if err != nil {
			return out, err
		}
		w.samples = append(w.samples, planCall{in: in, plan: &core.Plan{Objective: pub.Table.Objective}})
	}
	return out, nil
}

func (w *fleetWorkload) note(format string, args ...any) {
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// checkReplicas asserts that every replica sits at the publisher's epoch
// and that the replicas' planned per-stream rates add back up to the
// fleet table.
func (w *fleetWorkload) checkReplicas(pub *cluster.Publication) {
	full, err := dispatch.FromWire(pub.Table)
	if err != nil {
		w.note("slot %d: publication does not decode: %v", pub.Slot, err)
		return
	}
	sum := make([]float64, full.K()*full.S())
	for _, r := range w.fleet.Replicas {
		if r.Epoch() != w.fleet.Pub.Epoch() {
			w.note("slot %d: replica %s at epoch %d, publisher at %d", pub.Slot, r.ID, r.Epoch(), w.fleet.Pub.Epoch())
		}
		t := r.Gateway().Table()
		if t == nil {
			w.note("slot %d: replica %s has no table", pub.Slot, r.ID)
			return
		}
		for k := 0; k < full.K(); k++ {
			for s := 0; s < full.S(); s++ {
				planned, _ := t.Planned(k, s)
				sum[k*full.S()+s] += planned
			}
		}
	}
	for k := 0; k < full.K(); k++ {
		for s := 0; s < full.S(); s++ {
			want, _ := full.Planned(k, s)
			// The shares telescope, so only summation round-off remains.
			if relDiff(sum[k*full.S()+s], want) > 1e-12 {
				w.note("slot %d: replicas' planned rate for stream (%d,%d) sums to %v, fleet table has %v", pub.Slot, k, s, sum[k*full.S()+s], want)
			}
		}
	}
}

// tracedSlot is Fleet.BeginSlot spelled out over the same public calls
// (the sequence cmd/profitlb's fleetSlot runs), with a span around each.
func (w *fleetWorkload) tracedSlot(tr *tracer, abs int, now float64) (*cluster.Publication, error) {
	root := tr.begin("fleet.slot", abs)
	defer tr.end(root)
	f := w.fleet
	id := tr.begin("cluster.beat_sweep", abs)
	for _, r := range f.Replicas {
		f.Pub.Beat(r.ID, abs)
	}
	f.Pub.SweepHealth(abs)
	tr.end(id)
	id = tr.begin("cluster.publish", abs)
	pub, err := f.Pub.PublishSlot(abs)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	all := tr.begin("cluster.apply_all", abs)
	for _, r := range f.Replicas {
		id = tr.begin("cluster.apply", abs)
		_, err := r.Apply(pub, now)
		tr.end(id)
		if err != nil {
			tr.end(all)
			return nil, err
		}
	}
	tr.end(all)
	id = tr.begin("cluster.tick", abs)
	for _, r := range f.Replicas {
		r.Tick(abs, now)
	}
	tr.end(id)
	return pub, nil
}

func (w *fleetWorkload) op(tr *tracer) (opOutcome, error) {
	if tr == nil {
		return w.commit(nil)
	}
	w.ctl.beginOp()
	out, err := w.commit(tr)
	if err != nil {
		return out, err
	}
	w.tracedOps++
	if len(w.ctl.calls) != 1 {
		return out, fmt.Errorf("slot %d: primary planner ran %d times, want 1", w.slot-1, len(w.ctl.calls))
	}
	c := w.ctl.calls[0]
	if w.probe == nil {
		w.probe = newLayerProbe(w.opt, w.dcfg, w.size.replicas, w.o.seconds)
		if w.feedSrc, err = sim.NewInputSource(w.cfg); err != nil {
			return out, err
		}
	}
	id := tr.begin("feed.fetch", c.in.Slot)
	w.feedSrc.Feeds().FetchSlot(c.in.Slot)
	tr.end(id)
	if err := w.probe.run(tr, c, float64(c.in.Slot)*w.cfg.Sys.Slot()); err != nil {
		return out, err
	}
	if got := core.PlanObjective(c.in, c.plan); relDiff(got, c.plan.Objective) > 1e-9 {
		w.note("slot %d: PlanObjective %v differs from Plan.Objective %v", c.in.Slot, got, c.plan.Objective)
	}
	return out, nil
}

func (w *fleetWorkload) layers(tr *tracer, _ *floors, m metrics) {
	if w.probe == nil {
		return
	}
	w.probe.layers(tr, w.ctl, 1, m)
	m.set("cluster.apply_us", tr.floorUS("cluster.apply"), "us")
	m.set("cluster.apply_all_us", tr.floorUS("cluster.apply_all"), "us")
	// What the publisher and driver add around the layers timed above.
	m.set("cluster.publish_self_us", tr.floorUS("cluster.publish")-m.get("sim.input_us")-
		m.get("resilient.plan_us")-m.get("core.verify_us")-m.get("dispatch.compile_us"), "us")
	m.set("trace.self_sum_ratio", tr.selfSumRatio("fleet.slot"), "ratio")
	if us, err := w.longpollPropagate(); err != nil {
		w.note("long-poll propagation: %v", err)
	} else {
		m.set("cluster.longpoll_propagate_us", us, "us")
	}
}

// longpollPropagate times publish → installed-on-a-remote-replica over
// the real HTTP long-poll transport on loopback: one Subscriber against
// Publisher.Handler(), fed sub-epoch publications of the current table so
// no planning sits inside the measurement.
func (w *fleetWorkload) longpollPropagate() (float64, error) {
	pubr := w.fleet.Pub
	srv := httptest.NewServer(http.StripPrefix("/cluster", pubr.Handler()))
	defer srv.Close()
	ccfg := cluster.Config{Replicas: w.size.replicas}.WithDefaults()
	rep := cluster.NewReplica("bench-ext", w.cfg.Sys, w.dcfg, ccfg, nil)
	now := float64(w.slot) * w.cfg.Sys.Slot()
	sub := cluster.NewSubscriber(srv.URL+"/cluster", rep, ccfg, func() float64 { return now })
	sub.Start()
	defer sub.Stop()
	wait := func(cond func() bool) error {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("remote replica did not catch up within 5s")
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	// First contact joins the replica and re-spreads under a fresh epoch.
	if err := wait(func() bool { return rep.Ready() && rep.Epoch() == pubr.Epoch() }); err != nil {
		return 0, err
	}
	publishes := 50
	if w.o.smoke {
		publishes = 5
	}
	var us []float64
	for i := 0; i < publishes; i++ {
		cur := pubr.Current()
		next := *cur.Table
		next.Sub = cur.Sub + 1
		start := time.Now()
		if pubr.PublishControl(&next, cur.Slot) == nil {
			return 0, fmt.Errorf("publisher refused sub-epoch %d", next.Sub)
		}
		if err := wait(func() bool { return rep.Sub() == next.Sub }); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

func (w *fleetWorkload) verify() []string {
	bad := w.problems
	if len(w.samples) == 0 {
		bad = append(bad, "no slot was sampled for the cold re-plan check")
	}
	cold := coldPlanner(w.size.refine)
	for _, c := range w.samples {
		ref, err := cold.Plan(c.in)
		if err != nil {
			bad = append(bad, fmt.Sprintf("slot %d: cold re-plan: %v", c.in.Slot, err))
			continue
		}
		if d := relDiff(c.plan.Objective, ref.Objective); d > 1e-6 {
			bad = append(bad, fmt.Sprintf("slot %d: committed objective %v vs cold dense %v (%.3g relative)", c.in.Slot, c.plan.Objective, ref.Objective, d))
		}
	}
	return bad
}
