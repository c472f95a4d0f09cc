package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"profitlb/internal/cluster"
	"profitlb/internal/config"
	"profitlb/internal/dispatch"
	"profitlb/internal/loadgen"
	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

// cmdLoadtest replays a scenario against the dispatch plane at request
// granularity and reports achieved vs planned traffic, shed fractions
// and realized vs predicted profit. By default it runs the gateways
// in-process — a fleet of one unless -replicas or the scenario's cluster
// block says otherwise — under the load generator in virtual time; with
// -addr it instead fires requests at a live `profitlb serve` over HTTP.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (see 'scaffold')")
	slots := fs.Int("slots", 0, "slots to replay (default: the scenario's horizon)")
	seed := fs.Int64("seed", 1, "arrival-synthesis seed (and storm seed with -faults storm)")
	burst := fs.Float64("burst-factor", 0, "open-loop burstiness: >1 switches Poisson to a two-state MMPP with this peak-to-mean ratio")
	burstFE := fs.Int("burst-front-end", -1, "pin the MMPP burst to this front-end index; other front-ends stay Poisson (-1 bursts all)")
	controlOn := fs.Bool("control", false, "close the sub-slot loop: a drift controller re-scales routing tables mid-slot from achieved lane rates")
	closed := fs.Bool("closed", false, "closed-loop load: think-time users per (type, front-end) stream instead of open-loop arrivals")
	users := fs.Int("users", 0, "closed-loop users per stream (default 32)")
	think := fs.Float64("think", 0, "closed-loop mean think time in virtual time units (default: slot/8)")
	faultsArg := fs.String("faults", "", "fault schedule: a JSON file of events, 'storm' for a seeded outage+spike storm, or 'flash' for a front-end-0 flash crowd")
	feedsArg := fs.String("feeds", "", "telemetry feed layer: 'on' for defaults, or a feed-config JSON file")
	resilient := fs.Bool("resilient", false, "wrap the planner in the resilient fallback chain")
	minPlanned := fs.Float64("min-planned", 500, "lanes below this planned request count are excluded from the rate-error gate")
	addr := fs.String("addr", "", "HTTP mode: base URL of a live gateway, or a comma-separated list of replica URLs")
	n := fs.Int("n", 1000, "HTTP mode: requests to fire")
	replicas := fs.Int("replicas", 0, "replay against an in-process gateway fleet of this size (overrides the scenario's cluster block; default one)")
	metricsPath := fs.String("metrics", "", "write the replay's metrics to this file on exit (Prometheus text; JSON when the path ends in .json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*path)
	if err != nil {
		return err
	}
	if *addr != "" {
		targets := strings.Split(*addr, ",")
		if len(targets) == 1 {
			res, err := loadgen.FireHTTP(targets[0], sc.System, *n, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("loadtest %s: %d requests → %d admitted, %d shed, %d rejected (%d retries)\n",
				targets[0], res.Sent, res.Admitted, res.Shed, res.Rejected, res.Retries)
			return nil
		}
		total, per, err := loadgen.FireHTTPMulti(targets, sc.System, *n, *seed, loadgen.FireConfig{})
		if err != nil {
			return err
		}
		for i, p := range per {
			fmt.Printf("  %s: %d requests → %d admitted, %d shed, %d rejected (%d retries)\n",
				targets[i], p.Sent, p.Admitted, p.Shed, p.Rejected, p.Retries)
		}
		fmt.Printf("loadtest fleet of %d: %d requests → %d admitted, %d shed, %d rejected (%d retries)\n",
			len(targets), total.Sent, total.Admitted, total.Shed, total.Rejected, total.Retries)
		return nil
	}
	if *resilient {
		sc.Resilient = true
	}
	if err := applyFaultsFlag(sc, *faultsArg, *seed); err != nil {
		return err
	}
	if err := applyFeedsFlag(sc, *feedsArg); err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	// The gateway always runs instrumented here: the summary cross-checks
	// the load generator's tallies against the dispatch counters.
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	sc.Obs = scope
	planner, err := sc.BuildPlanner()
	if err != nil {
		return err
	}
	src, err := sim.NewInputSource(sc.SimConfig())
	if err != nil {
		return err
	}
	d := &dispatch.Driver{Gateway: dispatch.NewGateway(sc.System, sc.DispatchConfig(), scope), Planner: planner, Source: src}
	lcfg := loadgen.Config{
		Seed:        *seed,
		StartSlot:   sc.StartSlot,
		Slots:       sc.Slots,
		BurstFactor: *burst,
		Closed:      *closed,
		Users:       *users,
		Think:       *think,
		Control:     *controlOn,
	}
	if *burstFE >= 0 {
		lcfg.BurstFrontEnd = burstFE
	}
	if *slots > 0 {
		lcfg.Slots = *slots
	}
	ccfg := sc.ClusterConfig()
	if *replicas > 0 {
		ccfg.Replicas = *replicas
	}
	f, err := cluster.NewFleet(sc.System, sc.DispatchConfig(), ccfg, d, sc.Faults, scope)
	if err != nil {
		return err
	}
	rep, err := loadgen.Run(f, src, lcfg)
	if err != nil {
		return err
	}
	if err := printReplay(sc, planner.Name(), lcfg, rep, *minPlanned); err != nil {
		return err
	}
	reconcile(f, rep, scope, float64(len(rep.Slots))*sc.System.Slot())
	return writeMetrics(*metricsPath, reg)
}

// printReplay writes the replay's per-slot table and its summary lines.
func printReplay(sc *config.Scenario, planner string, lcfg loadgen.Config, rep *loadgen.Report, minPlanned float64) error {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "loadtest %s: planner %s, fleet of %d, %d slots, seed %d\n",
		sc.Name, planner, rep.Replicas, len(rep.Slots), lcfg.Seed)
	fmt.Fprintln(w, "SLOT\tEPOCH\tLIVE\tSTALE\tOFFERED\tADMITTED\tSHED(BUDGET)\tSHED(UNPLANNED)\tINVALID\tNET($)\tPLANNED($)\tTIER")
	for i := range rep.Slots {
		s := &rep.Slots[i]
		tier := s.Tier
		if tier == "" {
			tier = "primary"
		}
		if s.Epoch == 0 {
			tier = "outage"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%s\n",
			s.Slot, s.Epoch, s.Live, s.Stale, s.Offered, s.Admitted, s.ShedBudget, s.ShedUnplanned, s.Invalid,
			s.NetProfit, s.PlannedProfit, tier)
	}
	offered, admitted, shed := rep.Totals()
	fmt.Fprintf(w, "total\t\t\t\t%d\t%d\t%d\t\t%d\t%.2f\t%.2f\t\n", offered, admitted, shed, rep.Invalid(),
		rep.TotalNetProfit(), rep.TotalPlannedProfit())
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("shed fraction %.4f (%d budget, %d unplanned), max lane rate error %.2f%% (lanes ≥ %.0f planned), invalid answers %d, degraded slots %d/%d\n",
		rep.ShedFraction(), rep.BudgetShed(), shed-rep.BudgetShed(),
		100*rep.MaxLaneError(minPlanned), minPlanned, rep.Invalid(), rep.DegradedSlots(), len(rep.Slots))
	if lcfg.Control {
		fmt.Printf("control: %d actuations, max lane demand error %.2f%% (lanes ≥ %.0f demand)\n",
			rep.Actuations(), 100*rep.MaxDemandError(minPlanned), minPlanned)
	}
	return nil
}

// reconcile checks the generator's accounting against the replicas' own:
// each replica's gateway counters against the requests the balancer fired
// at it, and the shared dispatch counters against the report's totals —
// both watched the same requests through independent code paths.
func reconcile(f *cluster.Fleet, rep *loadgen.Report, scope *obs.Scope, now float64) {
	ok := true
	for i, pr := range rep.PerReplica {
		st := f.Replicas[i].Gateway().Stats(now)
		if st.TotalRequests != pr.Offered || st.TotalAdmitted != pr.Admitted ||
			st.TotalShed != pr.ShedBudget+pr.ShedUnplanned {
			ok = false
			fmt.Printf("replica %s DISAGREES: gateway %d/%d/%d vs generator %d/%d/%d\n",
				pr.ID, st.TotalRequests, st.TotalAdmitted, st.TotalShed,
				pr.Offered, pr.Admitted, pr.ShedBudget+pr.ShedUnplanned)
		}
	}
	offered, admitted, shed := rep.Totals()
	cReq := scope.Counter("dispatch_requests_total").Value()
	cAdmit := scope.Counter("dispatch_admitted_total").Value()
	cShed := scope.Counter("dispatch_shed_total", obs.L("reason", "budget")).Value() +
		scope.Counter("dispatch_shed_total", obs.L("reason", "unplanned")).Value()
	if ok && cReq == offered && cAdmit == admitted && cShed == shed {
		fmt.Printf("obs counters reconcile across %d replicas: %d requests = %d admitted + %d shed\n", rep.Replicas, cReq, cAdmit, cShed)
	} else {
		fmt.Printf("obs counters DISAGREE: counters %d/%d/%d vs report %d/%d/%d\n",
			cReq, cAdmit, cShed, offered, admitted, shed)
	}
}
