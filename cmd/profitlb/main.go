// Command profitlb runs the paper-reproduction experiments and utilities
// from the command line.
//
// Usage:
//
//	profitlb list                 list registered experiments
//	profitlb run <id>... | all    run experiments (-csv DIR for CSV export)
//	profitlb prices               print the embedded electricity traces
//	profitlb trace [-seed N]      print a workload trace (-stats for summary)
//	profitlb scaffold             print an example JSON scenario
//	profitlb simulate -config F   run a JSON scenario and print the report
//	                              (-faults F|storm, -resilient, -seed N,
//	                              -feeds on|F to configure the telemetry
//	                              feed layer and print its health,
//	                              -horizon H / -defer N,N for the rolling-
//	                              horizon mpc planner and its backlog,
//	                              -metrics/-trace/-pprof for observability)
//	profitlb chaos -config F      profit retention per planner under a
//	                              seeded outage + price-spike storm
//	                              (-feeds adds feed faults and a feed-tier
//	                              column,
//	                              -metrics/-trace/-pprof observe the storm)
//	profitlb compare -config F    run a scenario under every planner
//	profitlb export-lp -config F  dump a slot's dispatch LP (CPLEX format)
//	profitlb replay T -slot N     re-plan slot N of a simulate -trace file
//	                              on a fresh planner (-planner P) and
//	                              compare it with the committed objective
//	profitlb serve -config F      run the online dispatch gateway over HTTP
//	                              (-addr, -slot-seconds, -seed; -replicas N
//	                              sizes the fleet (one), -join URL joins
//	                              one as a data-plane replica, -control arms
//	                              the sub-slot drift controller; graceful
//	                              drain on SIGINT/SIGTERM)
//	profitlb loadtest -config F   replay a scenario against the dispatch
//	                              plane and report achieved vs planned rates
//	                              (-slots, -seed, -burst-factor, -closed,
//	                              -faults F|storm|flash, -feeds, -resilient,
//	                              -burst-front-end S pins the MMPP burst,
//	                              -control arms the drift controller,
//	                              -replicas N sizes the fleet (one);
//	                              -addr URL[,URL...] fires at live gateways)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"profitlb/internal/baseline"
	"profitlb/internal/config"
	"profitlb/internal/core"
	"profitlb/internal/exp"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/mpc"
	"profitlb/internal/report"
	"profitlb/internal/sim"
	"profitlb/internal/stats"
	"profitlb/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profitlb:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "run":
		return cmdRun(args[1:])
	case "prices":
		return cmdPrices()
	case "trace":
		return cmdTrace(args[1:])
	case "scaffold":
		return cmdScaffold()
	case "simulate":
		return cmdSimulate(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadtest":
		return cmdLoadtest(args[1:])
	case "export-lp":
		return cmdExportLP(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Println(`profitlb — profit-aware load balancing for distributed cloud data centers

commands:
  list                 list registered experiments (one per paper table/figure)
  run <id>... | all    run experiments and print their tables
  prices               print the embedded electricity price traces (Fig. 1)
  trace [-seed N]      print a World-Cup-like workload trace (Fig. 5 generator)
  scaffold             print an example JSON scenario to stdout
  simulate -config F   run a JSON scenario file and print the report
                       (-faults F|storm injects failures, -resilient wraps
                       the planner in the fallback chain, -seed N seeds
                       storms, -feeds on|F configures the feed layer and
                       adds a feed-health column,
                       -horizon H plans each slot as the first of an
                       H-slot rolling window (the mpc planner) and
                       -defer N,N,... grants per-class deferral
                       allowances in slots for its deadline-aware
                       backlog, -metrics F dumps run metrics, -trace F
                       streams planner-decision events as JSON lines,
                       -pprof ADDR serves net/http/pprof + /metrics)
  chaos -config F      profit retention per planner under a seeded fault
                       storm (outages + price spikes), resilient chains on
                       (-feeds adds feed faults + a feed-tier column;
                       -metrics/-trace/-pprof observe the storm run)
  compare -config F    run a scenario under every planner
  export-lp -config F  dump one slot's dispatch LP in CPLEX LP format
  replay T -slot N     rebuild slot N's input from a simulate -trace file T,
                       plan it on a fresh planner (-planner P; default the
                       one that ran the slot) and print the replayed and
                       committed objectives and their relative difference
  serve -config F      run the online dispatch gateway: one HTTP endpoint
                       per front-end (/dispatch/<front-end>/<class>),
                       admin endpoints (/healthz /readyz /admin/plan
                       /admin/stats /metrics), plan hot-swap at slot
                       boundaries and graceful drain on SIGINT/SIGTERM
                       (-addr, -slot-seconds N maps one plan slot onto N
                       wall seconds, -seed N fixes the routing seed;
                       -replicas N serves through N gateway replicas
                       (default one) with epoch-fenced plan distribution
                       at /cluster/plan,
                       -join URL -id NAME joins a remote fleet as a
                       planner-less data-plane replica, -control arms the
                       sub-slot drift controller publishing fenced
                       (epoch, sub) corrections)
  loadtest -config F   replay a scenario against the dispatch plane at
                       request granularity and report achieved vs planned
                       per-lane rates, shed fractions and realized profit
                       (-slots, -seed, -burst-factor F, -closed -users N,
                       -faults F|storm|flash, -feeds on|F, -resilient,
                       -metrics F, -burst-front-end S pins the MMPP burst
                       to one front-end, -control arms the sub-slot drift
                       controller and reports demand error + actuations;
                       -replicas N replays against an in-process fleet
                       of N (default one) with per-replica reconciliation;
                       -addr URL[,URL...] -n N fires at live 'serve'
                       gateways over HTTP instead)`)
}

// loadScenario opens and decodes a scenario file given on the flag.
func loadScenario(path string) (*config.Scenario, error) {
	if path == "" {
		return nil, fmt.Errorf("-config is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.Load(f)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (see 'scaffold')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*path)
	if err != nil {
		return err
	}
	planners := []core.Planner{
		core.NewOptimized(),
		core.NewLevelSearch(),
		baseline.NewBalanced(),
		baseline.NewNearest(),
		baseline.NewGreedyProfit(),
		baseline.NewRandom(1),
	}
	reports, err := sim.Compare(sc.SimConfig(), planners...)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scenario %s: %d slots\n", sc.Name, sc.Slots)
	fmt.Fprintln(w, "PLANNER\tNET PROFIT($)\tVS BEST\tCOST($)")
	best := reports[0].TotalNetProfit()
	for _, r := range reports {
		if r.TotalNetProfit() > best {
			best = r.TotalNetProfit()
		}
	}
	for _, r := range reports {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f%%\t%.2f\n",
			r.Planner, r.TotalNetProfit(), 100*report.Frac(r.TotalNetProfit(), best), r.TotalCost())
	}
	return w.Flush()
}

func cmdExportLP(args []string) error {
	fs := flag.NewFlagSet("export-lp", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (see 'scaffold')")
	slot := fs.Int("slot", 0, "window slot whose dispatch LP to export")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*path)
	if err != nil {
		return err
	}
	cfg := sc.SimConfig()
	sys := cfg.Sys
	arr := make([][]float64, sys.S())
	for s := 0; s < sys.S(); s++ {
		arr[s] = make([]float64, sys.K())
		for k := 0; k < sys.K(); k++ {
			arr[s][k] = cfg.Traces[s].At(cfg.StartSlot+*slot, k)
		}
	}
	prices := make([]float64, sys.L())
	for l := 0; l < sys.L(); l++ {
		prices[l] = cfg.Prices[l].At(cfg.StartSlot + *slot)
	}
	m, err := core.DispatchModel(&core.Input{Sys: sys, Arrivals: arr, Prices: prices})
	if err != nil {
		return err
	}
	return m.WriteLPFormat(os.Stdout)
}

func cmdScaffold() error {
	return config.Example().Save(os.Stdout)
}

// applyFaultsFlag resolves the -faults flag onto the scenario: a path to
// a fault-schedule JSON file ({"events":[...]}), "storm" for a seeded
// outage + price-spike storm generated against the scenario's topology,
// or "flash" for a horizon-long flash crowd (2× mean) pinned to
// front-end 0 — the drift scenario the sub-slot controller corrects.
func applyFaultsFlag(sc *config.Scenario, faultsArg string, seed int64) error {
	switch {
	case faultsArg == "":
		return nil
	case faultsArg == "flash":
		sc.Faults = &fault.Schedule{Events: []fault.Event{{
			Kind: fault.FlashCrowd, FrontEnd: 0, Factor: 2,
			From: sc.StartSlot, To: sc.StartSlot + sc.Slots - 1,
		}}}
		return nil
	case faultsArg == "storm":
		sch, err := fault.Storm(fault.StormConfig{
			Seed:      seed,
			Start:     sc.StartSlot,
			Slots:     sc.Slots,
			Centers:   sc.System.L(),
			FrontEnds: sc.System.S(),
			Outages:   1, OutageSlots: 3,
			Spikes: 2, SpikeFactor: 2,
		})
		if err != nil {
			return err
		}
		sc.Faults = sch
	default:
		f, err := os.Open(faultsArg)
		if err != nil {
			return err
		}
		defer f.Close()
		var sch fault.Schedule
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sch); err != nil {
			return fmt.Errorf("faults file %s: %w", faultsArg, err)
		}
		sc.Faults = &sch
	}
	return sc.Validate()
}

// applyFeedsFlag resolves the -feeds flag onto the scenario: "on" (or
// "default") routes the planner's inputs through the telemetry feed
// layer with default settings, any other value is a path to a
// feed-config JSON file. An empty flag leaves the scenario's own feeds
// block (if any) in force.
func applyFeedsFlag(sc *config.Scenario, feedsArg string) error {
	switch feedsArg {
	case "":
		return nil
	case "on", "default":
		sc.Feeds = &feed.Config{}
	default:
		f, err := os.Open(feedsArg)
		if err != nil {
			return err
		}
		defer f.Close()
		var cfg feed.Config
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return fmt.Errorf("feeds file %s: %w", feedsArg, err)
		}
		sc.Feeds = &cfg
	}
	return sc.Validate()
}

// applyMPCFlags resolves -horizon/-defer onto the scenario: either flag
// switches the planner to the rolling-horizon mpc planner, overriding the
// matching fields of the scenario's mpc block. Zero/empty flags leave the
// scenario untouched.
func applyMPCFlags(sc *config.Scenario, horizon int, deferArg string) error {
	if horizon == 0 && deferArg == "" {
		return nil
	}
	var mc mpc.Config
	if sc.MPC != nil {
		mc = *sc.MPC
	}
	if horizon != 0 {
		mc.Horizon = horizon
	}
	if deferArg != "" {
		var allow []int
		for _, part := range strings.Split(deferArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("-defer %q: %w", deferArg, err)
			}
			allow = append(allow, n)
		}
		mc.MaxDefer = allow
	}
	sc.MPC = &mc
	sc.Planner = "mpc"
	return sc.Validate()
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (see 'scaffold')")
	faultsArg := fs.String("faults", "", "fault schedule: a JSON file of events, 'storm' for a seeded outage+spike storm, or 'flash' for a front-end-0 flash crowd")
	seed := fs.Int64("seed", 1, "storm seed (with -faults storm)")
	resilient := fs.Bool("resilient", false, "wrap the planner in the resilient fallback chain")
	feedsArg := fs.String("feeds", "", "telemetry feed layer: 'on' for defaults, or a feed-config JSON file")
	horizon := fs.Int("horizon", 0, "rolling-horizon window length in slots: switches the scenario to the mpc planner (overrides the scenario's mpc block)")
	deferArg := fs.String("defer", "", "per-class deferral allowances in slots for the mpc planner, comma-separated (e.g. '0,2'); switches the scenario to the mpc planner")
	metricsPath := fs.String("metrics", "", "write the run's metrics to this file on exit (Prometheus text; JSON when the path ends in .json)")
	tracePath := fs.String("trace", "", "stream structured planner-decision events to this file (JSON lines)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and live /metrics on this address (e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*path)
	if err != nil {
		return err
	}
	sess, err := openObs(*metricsPath, *tracePath, *pprofAddr)
	if err != nil {
		return err
	}
	defer sess.Close()
	sc.Obs = sess.Scope()
	if *resilient {
		sc.Resilient = true
	}
	if err := applyFaultsFlag(sc, *faultsArg, *seed); err != nil {
		return err
	}
	if err := applyFeedsFlag(sc, *feedsArg); err != nil {
		return err
	}
	if err := applyMPCFlags(sc, *horizon, *deferArg); err != nil {
		return err
	}
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	withFaults := !sc.Faults.Empty() || sc.Resilient
	withFeeds := sc.Feeds != nil
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scenario %s: planner %s, %d slots\n", sc.Name, rep.Planner, len(rep.Slots))
	if !sc.Faults.Empty() {
		var names []string
		for i := range sc.Faults.Events {
			names = append(names, sc.Faults.Events[i].String())
		}
		fmt.Fprintf(w, "fault schedule: %s\n", strings.Join(names, " "))
	}
	header := "SLOT\tOFFERED\tSERVED\tREVENUE($)\tENERGY($)\tTRANSFER($)\tNET($)\tSERVERS"
	if withFaults {
		header += "\tTIER\tFAULTS"
	}
	if withFeeds {
		header += "\tFEEDS"
	}
	fmt.Fprintln(w, header)
	for _, s := range rep.Slots {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.2f\t%.2f\t%.2f\t%.2f\t%d",
			s.Slot, s.Offered(), s.Served(), s.Revenue, s.EnergyCost, s.TransferCost, s.NetProfit, s.ServersOn)
		if withFaults {
			fmt.Fprintf(w, "\t%s\t%s", s.TierLabel(), strings.Join(s.FaultsActive, " "))
		}
		if withFeeds {
			fmt.Fprintf(w, "\t%s", feedLabel(s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "total\t\t\t\t\t\t%.2f\t\n", rep.TotalNetProfit())
	if withFaults {
		fmt.Fprintf(w, "degraded slots %d of %d, lost revenue $%.2f\n",
			rep.DegradedSlots(), len(rep.Slots), rep.TotalLostRevenue())
	}
	if deferred, drained, forced, shed := rep.DeferralTotals(); deferred+drained+forced+shed > 0 {
		T := sc.System.Slot()
		fmt.Fprintf(w, "deferral: %.0f deferred, %.0f drained (%.0f forced), %.0f shed requests; final backlog %.0f req/slot\n",
			deferred*T, drained*T, forced*T, shed*T, rep.FinalBacklog()*T)
	}
	if withFeeds {
		fmt.Fprintf(w, "feed tiers %s, mean staleness %.2f slots, breaker-open feed-slots %d\n",
			rep.FeedTierMix(), rep.MeanFeedStaleness(), rep.BreakerOpenSlots())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return sess.Close()
}

// feedLabel compresses a slot's feed health for the report table:
// "fresh" when every feed delivered a live sample, otherwise the
// non-fresh feeds as e.g. "p0:lkg(1) a1:prior(3)!" (p = price feed of
// center N, a = arrival feed of front-end N, bang = open breaker).
func feedLabel(s sim.SlotReport) string {
	if s.Feeds.AllFresh() {
		return "fresh"
	}
	var parts []string
	for l, h := range s.Feeds.Prices {
		if h.Tier != feed.TierFresh || h.Breaker != feed.Closed {
			parts = append(parts, fmt.Sprintf("p%d:%s", l, h.Label()))
		}
	}
	for fe, h := range s.Feeds.Arrivals {
		if h.Tier != feed.TierFresh || h.Breaker != feed.Closed {
			parts = append(parts, fmt.Sprintf("a%d:%s", fe, h.Label()))
		}
	}
	if len(parts) == 0 {
		return "fresh"
	}
	return strings.Join(parts, " ")
}

// cmdChaos runs the scenario twice per planner — clean and under a
// seeded outage + price-spike storm with every planner wrapped in the
// resilient fallback chain — and tables profit retention, completion and
// degradation. The same seed always reproduces the same storm.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (defaults to the built-in example)")
	seed := fs.Int64("seed", 1, "storm seed")
	outages := fs.Int("outages", 1, "center outages to inject")
	outageSlots := fs.Int("outage-slots", 3, "slots each outage lasts")
	spikes := fs.Int("spikes", 2, "price spikes to inject")
	spikeFactor := fs.Float64("spike-factor", 2, "price multiplier during a spike")
	feeds := fs.Bool("feeds", false, "add feed faults to the storm and report each planner's feed tiers")
	metricsPath := fs.String("metrics", "", "write the storm run's metrics to this file on exit (Prometheus text; JSON when the path ends in .json)")
	tracePath := fs.String("trace", "", "stream the storm run's planner-decision events to this file (JSON lines)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and live /metrics on this address (e.g. 127.0.0.1:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := config.Example()
	if *path != "" {
		var err error
		if sc, err = loadScenario(*path); err != nil {
			return err
		}
	}
	sess, err := openObs(*metricsPath, *tracePath, *pprofAddr)
	if err != nil {
		return err
	}
	defer sess.Close()
	if err := sc.Validate(); err != nil { // resolves named price references
		return err
	}
	stormCfg := fault.StormConfig{
		Seed:      *seed,
		Start:     sc.StartSlot,
		Slots:     sc.Slots,
		Centers:   sc.System.L(),
		FrontEnds: sc.System.S(),
		Outages:   *outages, OutageSlots: *outageSlots,
		Spikes: *spikes, SpikeFactor: *spikeFactor,
	}
	if *feeds {
		stormCfg.FeedDropouts, stormCfg.FeedNoises, stormCfg.FeedDelays = 2, 1, 1
	}
	storm, err := fault.Storm(stormCfg)
	if err != nil {
		return err
	}
	cleanCfg := sc.SimConfig()
	cleanCfg.Obs = nil // observe the storm run only: lanes share one scope
	faultedCfg := cleanCfg
	faultedCfg.Faults = storm
	faultedCfg.DegradeOnFailure = true
	faultedCfg.Obs = sess.Scope()

	// Every lane plans through the scenario's engine settings under its
	// own planner name; the storm lanes add the resilient chain and the
	// session's scope.
	lanes := []string{"optimized", "level-search", "balanced"}
	cleanPlanners := make([]core.Planner, len(lanes))
	stormPlanners := make([]core.Planner, len(lanes))
	for i, name := range lanes {
		lane := *sc
		lane.Planner, lane.Faults, lane.Resilient, lane.Obs = name, nil, false, nil
		if cleanPlanners[i], err = lane.BuildPlanner(); err != nil {
			return err
		}
		lane.Resilient, lane.Obs = true, sess.Scope()
		if stormPlanners[i], err = lane.BuildPlanner(); err != nil {
			return err
		}
	}
	clean, err := sim.Compare(cleanCfg, cleanPlanners...)
	if err != nil {
		return err
	}
	faulted, err := sim.Compare(faultedCfg, stormPlanners...)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scenario %s: storm seed %d over %d slots\n", sc.Name, *seed, sc.Slots)
	var names []string
	for _, e := range storm.Events {
		names = append(names, e.String())
	}
	fmt.Fprintf(w, "storm: %s\n", strings.Join(names, " "))
	header := "PLANNER\tCLEAN($)\tSTORM($)\tRETAINED\tCOMPLETION\tDEGRADED\tLOST($)"
	if *feeds {
		header += "\tFEED TIERS"
	}
	fmt.Fprintln(w, header)
	for i, name := range lanes {
		retained := report.Frac(faulted[i].TotalNetProfit(), clean[i].TotalNetProfit())
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f%%\t%.1f%%\t%d/%d\t%.2f",
			name, clean[i].TotalNetProfit(), faulted[i].TotalNetProfit(),
			100*retained, 100*faulted[i].MeanCompletion(),
			faulted[i].DegradedSlots(), len(faulted[i].Slots),
			faulted[i].TotalLostRevenue())
		if *feeds {
			fmt.Fprintf(w, "\t%s", faulted[i].FeedTierMix())
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return sess.Close()
}

func cmdList() error {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tPAPER\tTITLE")
	for _, e := range exp.All() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Paper, e.Title)
	}
	return w.Flush()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	csvDir := fs.String("csv", "", "also write each result table as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("run: need experiment ids or 'all'")
	}
	var todo []*exp.Experiment
	if len(args) == 1 && args[0] == "all" {
		todo = exp.All()
	} else {
		for _, id := range args {
			e, ok := exp.Get(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try 'profitlb list')", id)
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(res)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSVs dumps every table of a result as <dir>/<id>_<n>.csv.
func writeCSVs(dir string, res *exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", res.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func cmdPrices() error {
	e, _ := exp.Get("fig1")
	res, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed")
	types := fs.Int("types", 3, "request types to derive by time shifting")
	base := fs.Float64("base", 650, "baseline arrival rate")
	showStats := fs.Bool("stats", false, "print per-type statistics instead of the CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series := workload.WorldCupLike(workload.WorldCupConfig{Seed: *seed, Base: *base})
	tr := workload.ShiftTypes(fmt.Sprintf("worldcup-seed%d", *seed), series, *types, 4)
	if !*showStats {
		return tr.WriteCSV(os.Stdout)
	}
	sums, err := stats.ForTrace(tr)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TYPE\tMEAN\tSD\tCV\tMIN\tMAX\tP50\tP95\tPEAK/MEAN\tLAG1-AC")
	for _, ts := range sums {
		sm := ts.Summary
		fmt.Fprintf(w, "type%d\t%.1f\t%.1f\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.3f\n",
			ts.Type, sm.Mean, sm.SD, sm.CV, sm.Min, sm.Max, sm.P50, sm.P95, sm.PeakToMean, ts.Lag1)
	}
	return w.Flush()
}
