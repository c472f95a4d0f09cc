package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"profitlb/internal/cluster"
	"profitlb/internal/config"
	"profitlb/internal/control"
	"profitlb/internal/dispatch"
	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

// gatewayServer is the `profitlb serve` runtime in one of two modes:
//
//   - fleet: a control plane (cluster.Publisher over the driver) plus N
//     in-process gateway replicas — one unless -replicas or the
//     scenario's cluster block says otherwise; /dispatch round-robins over
//     ready replicas and /cluster/plan lets external join-mode servers
//     pull the same epochs.
//   - join: one data-plane replica with no planner at all, pulling
//     epoch-fenced plans from a remote fleet server's /cluster endpoint.
//
// One loop goroutine owns the driver (or the staleness ticker in join
// mode); the HTTP handlers only touch gateways (concurrency-safe) and
// snapshots.
type gatewayServer struct {
	sc   *config.Scenario
	dcfg dispatch.Config
	ccfg cluster.Config
	mode string // "fleet" or "join"

	driver *dispatch.Driver
	fleet  *cluster.Fleet // fleet mode only: the control plane + reps
	reps   []*cluster.Replica
	sub    *cluster.Subscriber
	rr     atomic.Uint64 // the /dispatch round robin; nothing else turns it
	reg    *obs.Registry

	// ctrl, when -control is set, closes the sub-slot loop: the loop
	// goroutine ticks it between slot boundaries and it hot-swaps
	// re-scaled tables through the same install fences the planner uses.
	// ctrlMu orders the loop's BeginSlot/Tick with /admin/stats' reads of
	// the controller's counters; the request path never touches either.
	ctrl   *control.Controller
	ctrlMu sync.Mutex
	plant  *control.FleetPlant

	srv *http.Server
	ln  net.Listener

	feByName    map[string]int
	classByName map[string]int
	exposed     []bool // by front-end index

	startWall time.Time
	draining  atomic.Bool
	stopOnce  sync.Once
	stopLoop  chan struct{}
	loopDone  chan struct{}
}

// serveOptions selects the server mode.
type serveOptions struct {
	// Replicas sizes the fleet, overriding the scenario's cluster block;
	// 0 keeps the block's size (one replica without a block).
	Replicas int
	// JoinURL selects join mode: the base URL of a fleet server.
	JoinURL string
	// JoinID is the replica identity a join-mode server announces.
	JoinID string
	// Control enables the sub-slot drift controller (internal/control).
	Control bool
}

// newServer assembles the server the options select — its replicas,
// planner loop and HTTP mux — for a scenario. addr is the listen address
// ("127.0.0.1:0" picks a free port).
func newServer(sc *config.Scenario, addr string, opt serveOptions) (*gatewayServer, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	gs := &gatewayServer{
		sc:          sc,
		dcfg:        sc.DispatchConfig(),
		ccfg:        sc.ClusterConfig(),
		mode:        "fleet",
		reg:         reg,
		feByName:    map[string]int{},
		classByName: map[string]int{},
		exposed:     make([]bool, sc.System.S()),
		stopLoop:    make(chan struct{}),
		loopDone:    make(chan struct{}),
	}
	if opt.Replicas > 0 {
		gs.ccfg.Replicas = opt.Replicas
	}
	for i := range sc.System.FrontEnds {
		gs.feByName[sc.System.FrontEnds[i].Name] = i
	}
	for i := range sc.System.Classes {
		gs.classByName[sc.System.Classes[i].Name] = i
	}
	if len(gs.dcfg.FrontEnds) == 0 {
		for i := range gs.exposed {
			gs.exposed[i] = true
		}
	} else {
		for _, name := range gs.dcfg.FrontEnds {
			gs.exposed[gs.feByName[name]] = true // names validated by the config
		}
	}

	if opt.JoinURL != "" {
		if opt.Control {
			return nil, fmt.Errorf("profitlb: -control needs a local control plane; a join-mode replica only applies what the fleet publishes")
		}
		gs.mode = "join"
		id := opt.JoinID
		if id == "" {
			id = fmt.Sprintf("ext-%d", os.Getpid())
		}
		rep := cluster.NewReplica(id, sc.System, gs.dcfg, gs.ccfg, scope)
		gs.reps = []*cluster.Replica{rep}
		gs.sub = cluster.NewSubscriber(strings.TrimSuffix(opt.JoinURL, "/")+"/cluster", rep, gs.ccfg, gs.now)
	} else {
		planner, err := sc.BuildPlanner()
		if err != nil {
			return nil, err
		}
		src, err := sim.NewInputSource(sc.SimConfig())
		if err != nil {
			return nil, err
		}
		// The driver's gateway carries the compile configuration and the
		// scope; the replicas serve.
		gs.driver = &dispatch.Driver{
			Gateway: dispatch.NewGateway(sc.System, gs.dcfg, scope),
			Planner: planner, Source: src,
		}
		// No fault schedule: a live fleet's failures are real ones.
		if gs.fleet, err = cluster.NewFleet(sc.System, gs.dcfg, gs.ccfg, gs.driver, nil, scope); err != nil {
			return nil, err
		}
		gs.reps = gs.fleet.Replicas
		if opt.Control {
			gs.plant = &control.FleetPlant{Pub: gs.fleet.Pub, Replicas: gs.reps}
			gs.ctrl = control.NewController(gs.dcfg, gs.plant, scope)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/dispatch/", gs.handleDispatch)
	mux.HandleFunc("/healthz", gs.handleHealth)
	mux.HandleFunc("/readyz", gs.handleReady)
	mux.HandleFunc("/admin/plan", gs.handlePlan)
	mux.HandleFunc("/admin/stats", gs.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	if gs.fleet != nil {
		mux.Handle("/cluster/", http.StripPrefix("/cluster", gs.fleet.Pub.Handler()))
	}
	gs.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	var err error
	gs.ln, err = net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return gs, nil
}

// Addr returns the bound listen address.
func (gs *gatewayServer) Addr() string { return gs.ln.Addr().String() }

// now maps wall-clock time onto the gateway's virtual clock: one
// SlotSeconds of wall time is one slot length T of virtual time.
func (gs *gatewayServer) now() float64 {
	return time.Since(gs.startWall).Seconds() / gs.dcfg.SlotSeconds * gs.sc.System.Slot()
}

// pick returns the gateway serving the next request: the next ready
// replica in round-robin order (falling back to any replica — a not-ready
// gateway answers Invalid, which maps to 503).
func (gs *gatewayServer) pick() *dispatch.Gateway {
	n := len(gs.reps)
	start := int(gs.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := gs.reps[(start+i)%n]
		if r.Ready() {
			return r.Gateway()
		}
	}
	return gs.reps[start].Gateway()
}

// ready reports whether the serving plane has applied a first plan
// epoch: at least one replica has. Draining is never ready.
func (gs *gatewayServer) ready() bool {
	if gs.draining.Load() {
		return false
	}
	for _, r := range gs.reps {
		if r.Ready() {
			return true
		}
	}
	return false
}

// Start installs the first slot's plan (join mode starts its pull loop
// instead and becomes ready when the first epoch lands) and begins serving
// and slot rotation. It returns once the server is accepting requests.
func (gs *gatewayServer) Start() error {
	gs.startWall = time.Now()
	if gs.fleet == nil {
		gs.sub.Start()
	} else if err := gs.fleetSlot(gs.sc.StartSlot, 0); err != nil {
		return err
	}
	gs.beginControlSlot(gs.sc.StartSlot, 0)
	go gs.slotLoop()
	go func() { _ = gs.srv.Serve(gs.ln) }()
	return nil
}

// fleetSlot runs one control-plane slot cycle over the in-process
// replicas (cluster.Fleet.BeginSlot); external joiners beat through
// their pulls and receive the publish through their parked long-polls.
// A replica refusing the publication is logged, not fatal: the rest of
// the fleet has applied it.
func (gs *gatewayServer) fleetSlot(abs int, now float64) error {
	pub, err := gs.fleet.BeginSlot(abs, now)
	if pub != nil && err != nil {
		fmt.Fprintf(os.Stderr, "profitlb: serve: %v\n", err)
		return nil
	}
	return err
}

// committed returns the table the server currently serves, undivided: the
// publisher's current publication decoded (nil before the first). A
// join-mode server holds no publisher, only its replica's own share.
func (gs *gatewayServer) committed() *dispatch.Table {
	if gs.fleet == nil {
		return gs.reps[0].Gateway().Table()
	}
	cur := gs.fleet.Pub.Current()
	if cur == nil {
		return nil
	}
	t, err := dispatch.FromWire(cur.Table)
	if err != nil {
		return nil
	}
	return t
}

// beginControlSlot re-arms the controller on the slot's committed table.
// A slot with no table — a publish outage — disarms it until the next
// boundary.
func (gs *gatewayServer) beginControlSlot(abs int, now float64) {
	if gs.ctrl == nil {
		return
	}
	gs.plant.Slot = abs
	t := gs.committed()
	gs.ctrlMu.Lock()
	defer gs.ctrlMu.Unlock()
	gs.ctrl.BeginSlot(t, now, gs.sc.Faults.CenterFactors(gs.sc.System.L(), abs))
}

// slotLoop rotates the plan at slot boundaries: slot i begins
// i*SlotSeconds after start. The loop goroutine is the only driver
// caller after Start. In join mode the loop only advances staleness —
// the subscriber goroutine applies whatever the control plane sends.
// With -control it also ticks the drift controller between boundaries,
// SlotSeconds/control.TicksPerSlot apart.
func (gs *gatewayServer) slotLoop() {
	defer close(gs.loopDone)
	period := time.Duration(gs.dcfg.SlotSeconds * float64(time.Second))
	ticks := 1
	if gs.ctrl != nil {
		ticks = control.TicksPerSlot
	}
	joinSlot := -1
	for i := 1; ; i++ {
		// Sub-slot control ticks inside slot i-1; the tick that would land
		// on the boundary is the slot rotation itself.
		slotStart := gs.startWall.Add(time.Duration(i-1) * period)
		for j := 1; j < ticks; j++ {
			at := slotStart.Add(time.Duration(j) * period / time.Duration(ticks))
			tt := time.NewTimer(time.Until(at))
			select {
			case <-gs.stopLoop:
				tt.Stop()
				return
			case <-tt.C:
			}
			gs.ctrlMu.Lock()
			gs.ctrl.Tick(gs.now())
			gs.ctrlMu.Unlock()
		}
		next := gs.startWall.Add(time.Duration(i) * period)
		timer := time.NewTimer(time.Until(next))
		select {
		case <-gs.stopLoop:
			timer.Stop()
			return
		case <-timer.C:
		}
		abs := gs.sc.StartSlot + i
		now := float64(i) * gs.sc.System.Slot()
		if gs.fleet == nil {
			// Join mode: track the applied slot when plans flow; count
			// boundaries past it when they stop, so staleness (and the
			// TTL downgrade) advances even though this server never plans.
			r := gs.reps[0]
			t := r.Gateway().Table()
			if t == nil {
				continue
			}
			if t.Slot > joinSlot {
				joinSlot = t.Slot
			} else {
				joinSlot++
			}
			r.Tick(joinSlot, now)
			continue
		}
		if err := gs.fleetSlot(abs, now); err != nil {
			fmt.Fprintf(os.Stderr, "profitlb: serve: slot %d: %v\n", abs, err)
		}
		gs.beginControlSlot(abs, now)
	}
}

// Shutdown drains the gateway: new requests are refused with 503, the
// slot loop stops, and in-flight requests finish (bounded by the drain
// deadline). A clean drain returns nil. Safe to call more than once.
func (gs *gatewayServer) Shutdown(ctx context.Context) error {
	gs.draining.Store(true)
	gs.stopOnce.Do(func() { close(gs.stopLoop) })
	if gs.sub != nil {
		gs.sub.Stop()
	}
	err := gs.srv.Shutdown(ctx)
	<-gs.loopDone
	return err
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleDispatch is the request hot path: /dispatch/<front-end>/<class>,
// where both segments accept a name or an index. Admitted requests get
// 200 with the serving center and level; shed requests get 429 with the
// reason; a draining gateway refuses with 503.
func (gs *gatewayServer) handleDispatch(w http.ResponseWriter, r *http.Request) {
	if gs.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"outcome": "draining"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/dispatch/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "want /dispatch/<front-end>/<class>"})
		return
	}
	s, ok := gs.lookup(parts[0], gs.feByName, gs.sc.System.S())
	if !ok || !gs.exposed[s] {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown front-end %q", parts[0])})
		return
	}
	k, ok := gs.lookup(parts[1], gs.classByName, gs.sc.System.K())
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown class %q", parts[1])})
		return
	}
	dec := gs.pick().Handle(k, s, gs.now())
	switch dec.Outcome {
	case dispatch.Admitted:
		writeJSON(w, http.StatusOK, map[string]any{
			"outcome": dec.Outcome.String(),
			"center":  gs.sc.System.Centers[dec.Center].Name,
			"level":   dec.Level,
		})
	case dispatch.ShedUnplanned, dispatch.ShedBudget:
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"outcome": dec.Outcome.String()})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"outcome": dec.Outcome.String()})
	}
}

// lookup resolves a path segment as a name or a bare index.
func (gs *gatewayServer) lookup(seg string, byName map[string]int, n int) (int, bool) {
	if i, ok := byName[seg]; ok {
		return i, true
	}
	if i, err := strconv.Atoi(seg); err == nil && i >= 0 && i < n {
		return i, true
	}
	return 0, false
}

// handleHealth reports liveness: 200 while the process serves (even
// before the first plan — that is readiness, not liveness), 503 while
// draining.
func (gs *gatewayServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st, _ := gs.stats(gs.now())
	status := http.StatusOK
	state := "ok"
	if gs.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"mode":     gs.mode,
		"slot":     st.Slot,
		"degraded": st.Degraded,
		"tier":     st.Tier,
		"swaps":    st.Swaps,
	})
}

// handleReady reports readiness: 200 only once a first plan epoch is
// applied and the server is not draining. Load balancers gate on this;
// liveness (/healthz) stays green while a fresh replica is still waiting
// for its first epoch.
func (gs *gatewayServer) handleReady(w http.ResponseWriter, _ *http.Request) {
	if gs.ready() {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "mode": gs.mode})
		return
	}
	reason := "no plan epoch applied yet"
	if gs.draining.Load() {
		reason = "draining"
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "mode": gs.mode, "reason": reason})
}

// handlePlan dumps the committed routing table.
func (gs *gatewayServer) handlePlan(w http.ResponseWriter, _ *http.Request) {
	t := gs.committed()
	if t == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no table installed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slot":      t.Slot,
		"epoch":     t.Epoch,
		"objective": t.Objective,
		"serversOn": t.ServersOn,
		"degraded":  t.Degraded,
		"tier":      t.Tier,
		"seed":      t.Seed,
		"lanes":     t.Lanes,
	})
}

// replicaStatus is one replica's row in the cluster stats block.
type replicaStatus struct {
	ID        string         `json:"id"`
	Ready     bool           `json:"ready"`
	Epoch     uint64         `json:"epoch"`
	Staleness int            `json:"staleness"`
	Degraded  bool           `json:"degraded"`
	Stats     dispatch.Stats `json:"stats"`
}

// stats snapshots every replica and folds them into the serving plane's
// own dispatch.Stats: the counters summed, the table fields (slot, epoch,
// sub, degraded, tier) and lanes of the freshest replica, each lane's
// admitted count summed and its occupancy averaged over the replicas
// serving that same table. A fleet of one's aggregate is its replica's
// snapshot.
func (gs *gatewayServer) stats(now float64) (dispatch.Stats, []replicaStatus) {
	rows := make([]replicaStatus, len(gs.reps))
	fresh := 0
	for i, r := range gs.reps {
		rows[i] = replicaStatus{
			ID: r.ID, Ready: r.Ready(), Epoch: r.Epoch(),
			Staleness: r.Staleness(), Degraded: r.Degraded(),
			Stats: r.Gateway().Stats(now),
		}
		if st, f := &rows[i].Stats, &rows[fresh].Stats; st.Epoch > f.Epoch || st.Epoch == f.Epoch && st.Sub > f.Sub {
			fresh = i
		}
	}
	f := &rows[fresh].Stats
	sum := dispatch.Stats{Slot: f.Slot, Epoch: f.Epoch, Sub: f.Sub, Degraded: f.Degraded, Tier: f.Tier,
		Lanes: append([]dispatch.LaneCount(nil), f.Lanes...)}
	same := 0
	for i := range rows {
		st := &rows[i].Stats
		sum.FencedStale += st.FencedStale
		sum.FencedDup += st.FencedDup
		sum.Offered += st.Offered
		sum.Admitted += st.Admitted
		sum.ShedUnplanned += st.ShedUnplanned
		sum.ShedBudget += st.ShedBudget
		sum.TotalRequests += st.TotalRequests
		sum.TotalAdmitted += st.TotalAdmitted
		sum.TotalShed += st.TotalShed
		sum.Swaps += st.Swaps
		if st.Epoch != sum.Epoch || st.Sub != sum.Sub || len(st.Lanes) != len(sum.Lanes) {
			continue
		}
		if same++; i == fresh {
			continue // its lanes are sum's own
		}
		for j := range st.Lanes {
			sum.Lanes[j].Admitted += st.Lanes[j].Admitted
			sum.Lanes[j].Occupancy += st.Lanes[j].Occupancy
		}
	}
	for j := range sum.Lanes {
		sum.Lanes[j].Occupancy /= float64(same)
	}
	return sum, rows
}

// statsBody is /admin/stats: the serving plane's aggregate dispatch.Stats
// at top level — what a reader decoding a bare dispatch.Stats gets — with
// the per-replica rows and the fleet, controller and subscriber status
// beside it.
type statsBody struct {
	dispatch.Stats
	Mode           string          `json:"mode"`
	Replicas       []replicaStatus `json:"replicas"`
	PublishedEpoch uint64          `json:"publishedEpoch,omitempty"`
	Members        []string        `json:"members,omitempty"`
	Control        map[string]any  `json:"control,omitempty"`
	Subscriber     map[string]any  `json:"subscriber,omitempty"`
}

// handleStats dumps the aggregate and per-replica counters and per-lane
// tallies, plus the fleet status (published epoch, membership, per-replica
// epochs/staleness/fence counters).
func (gs *gatewayServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	agg, rows := gs.stats(gs.now())
	out := statsBody{Stats: agg, Mode: gs.mode, Replicas: rows}
	if gs.fleet != nil {
		out.PublishedEpoch = gs.fleet.Pub.Epoch()
		out.Members = gs.fleet.Pub.Members()
	}
	if gs.ctrl != nil {
		gs.ctrlMu.Lock()
		out.Control = map[string]any{
			"sub": gs.ctrl.Sub(), "actuations": gs.ctrl.Actuations(),
			"freezes": gs.ctrl.Freezes(), "frozen": gs.ctrl.Frozen(),
		}
		gs.ctrlMu.Unlock()
	}
	if gs.sub != nil {
		rounds, failures, lastErr := gs.sub.Stats()
		out.Subscriber = map[string]any{"rounds": rounds, "failures": failures}
		if lastErr != nil {
			out.Subscriber["lastErr"] = lastErr.Error()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// cmdServe boots the HTTP gateway for a scenario and runs until
// interrupted, then drains gracefully.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	path := fs.String("config", "", "path to a scenario JSON file (see 'scaffold')")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	slotSeconds := fs.Float64("slot-seconds", 0, "wall seconds per plan slot (overrides the scenario's dispatch block)")
	seed := fs.Uint64("seed", 0, "routing seed (overrides the scenario's dispatch block)")
	resilient := fs.Bool("resilient", true, "wrap the planner in the resilient fallback chain")
	replicas := fs.Int("replicas", 0, "serve through this many in-process gateway replicas (overrides the scenario's cluster block; default one)")
	join := fs.String("join", "", "join an existing fleet as a data-plane replica: base URL of a fleet server (no planner runs locally)")
	joinID := fs.String("id", "", "replica identity announced when joining (default ext-<pid>)")
	controlOn := fs.Bool("control", false, "close the sub-slot loop: a drift controller re-scales routing tables mid-slot from achieved lane rates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*path)
	if err != nil {
		return err
	}
	if *resilient {
		sc.Resilient = true
	}
	if sc.Dispatch == nil {
		d := dispatch.Config{}.WithDefaults()
		sc.Dispatch = &d
	}
	if *slotSeconds > 0 {
		sc.Dispatch.SlotSeconds = *slotSeconds
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			sc.Dispatch.Seed = *seed
		}
	})
	gs, err := newServer(sc, *addr, serveOptions{Replicas: *replicas, JoinURL: *join, JoinID: *joinID, Control: *controlOn})
	if err != nil {
		return err
	}
	if err := gs.Start(); err != nil {
		return err
	}
	if gs.fleet != nil {
		fmt.Printf("profitlb: serving scenario %s on http://%s as a %d-replica fleet (slot %d, %gs per slot)\n",
			sc.Name, gs.Addr(), len(gs.reps), sc.StartSlot, sc.Dispatch.SlotSeconds)
	} else {
		fmt.Printf("profitlb: serving scenario %s on http://%s, joining fleet at %s as %s\n",
			sc.Name, gs.Addr(), *join, gs.reps[0].ID)
	}
	fmt.Printf("profitlb: endpoints: /dispatch/<front-end>/<class>, /healthz, /readyz, /admin/plan, /admin/stats, /metrics\n")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	drainCtx, cancel := context.WithTimeout(context.Background(),
		time.Duration(gs.dcfg.DrainSeconds*float64(time.Second)))
	defer cancel()
	fmt.Println("profitlb: draining...")
	if err := gs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st, _ := gs.stats(gs.now())
	fmt.Printf("profitlb: drained cleanly: %d requests, %d admitted, %d shed\n",
		st.TotalRequests, st.TotalAdmitted, st.TotalShed)
	return nil
}
