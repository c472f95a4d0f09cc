package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"profitlb/internal/config"
	"profitlb/internal/dispatch"
	"profitlb/internal/feed"
	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

const (
	// httpRate is the open-loop offered rate. Callers of a dispatch
	// gateway are independent users, so requests leave on a schedule
	// whether or not earlier ones have been answered. Not lower than
	// this: at 1000/s the vCPUs idle between requests, and on a busy
	// host every wake-up from idle costs milliseconds (p90 1.3–52 ms
	// between runs, against 1.3–17 ms at 2000/s).
	httpRate = 2000.0
	// httpConns is the number of keep-alive connections the load shares:
	// with two cores for client and server together, more connections
	// only add scheduler noise.
	httpConns = 2
	// httpSlotSeconds is the serve process's wall-clock slot length: short
	// enough that a run sees several plan hot-swaps under live reads.
	httpSlotSeconds = 2.0
	// httpClosedMaxRate is more than the closed loop reaches with the
	// box to itself (~15 000 req/s).
	httpClosedMaxRate = 25000.0
	// httpRateScale multiplies the paper system's arrival and service
	// rates alike (a change of time unit): one slot's request budget must
	// cover httpSlotSeconds of the closed loop on every stream, so that
	// no request of either loop is shed.
	httpRateScale = 100
	// httpHeadroom is the share of a stream's planned wall-clock budget
	// the load may use, so admission never depends on bucket luck.
	httpHeadroom = 0.5
)

// httpPlanView is what the benchmark learns by planning the generated
// scenario in-process, exactly as `profitlb serve` will: per-slot
// objectives (the reference the server's own figures are checked
// against), the request mix that stays inside every slot's budget, and
// slot 0's compiled table for the Handle micro-measurement.
type httpPlanView struct {
	sc         *config.Scenario
	objectives []float64 // by slot offset from StartSlot
	weights    []float64 // [k*S+s], min over slots of the planned rate
	table0     *dispatch.Table
}

func buildHTTPScenario(seed int64) (*httpPlanView, error) {
	cfg := paperConfig(seed, httpRateScale)
	sc := &config.Scenario{
		Name: "bench-http", System: cfg.Sys, Traces: cfg.Traces, Prices: cfg.Prices,
		Slots: cfg.Slots, Planner: "optimized", Resilient: true, Feeds: &feed.Config{},
		Dispatch: &dispatch.Config{SlotSeconds: httpSlotSeconds},
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	planner, err := sc.BuildPlanner()
	if err != nil {
		return nil, err
	}
	src, err := sim.NewInputSource(sc.SimConfig())
	if err != nil {
		return nil, err
	}
	K, S := sc.System.K(), sc.System.S()
	v := &httpPlanView{sc: sc, weights: make([]float64, K*S)}
	for slot := 0; slot < sc.Slots; slot++ {
		in, err := src.PlannerInput(sc.StartSlot + slot)
		if err != nil {
			return nil, err
		}
		plan, err := planner.Plan(in)
		if err != nil {
			return nil, err
		}
		tab, err := dispatch.Compile(in, plan, sc.DispatchConfig())
		if err != nil {
			return nil, err
		}
		if slot == 0 {
			v.table0 = tab
		}
		v.objectives = append(v.objectives, plan.Objective)
		for k := 0; k < K; k++ {
			for s := 0; s < S; s++ {
				planned, _ := tab.Planned(k, s)
				if slot == 0 || planned < v.weights[k*S+s] {
					v.weights[k*S+s] = planned
				}
			}
		}
	}
	// Offered per-stream rate = httpRate · w/Σw must fit the stream's
	// thinnest slot: planned·T requests spread over httpSlotSeconds.
	var sum float64
	for _, w := range v.weights {
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("generated scenario plans no traffic on any stream")
	}
	if budget := httpHeadroom * sum * sc.System.Slot() / httpSlotSeconds; httpClosedMaxRate > budget {
		return nil, fmt.Errorf("%.0f req/s exceeds %.0f%% of the planned budget (%.0f req/s); raise httpRateScale", httpClosedMaxRate, 100*httpHeadroom, budget)
	}
	return v, nil
}

// streamPaths is the request path of every (class, front-end) stream,
// indexed k*S+s like the weights.
func (v *httpPlanView) streamPaths() []string {
	sys := v.sc.System
	S := sys.S()
	paths := make([]string, len(v.weights))
	for i := range paths {
		paths[i] = "/dispatch/" + sys.FrontEnds[i%S].Name + "/" + sys.Classes[i/S].Name
	}
	return paths
}

// requestMix draws n streams from the seed in proportion to the weights.
func (v *httpPlanView) requestMix(seed int64, n int) []int {
	cum := make([]float64, len(v.weights))
	var sum float64
	for i, w := range v.weights {
		sum += w
		cum[i] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * sum
		j := 0
		for j < len(cum)-1 && cum[j] <= u {
			j++
		}
		out[i] = j
	}
	return out
}

// serveProc is one spawned `profitlb serve`.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	done   chan struct{} // closed when stdout hits EOF
}

// startServe spawns the binary and returns once /readyz answers 200.
func startServe(bin, scenario string) (*serveProc, error) {
	p := &serveProc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, "serve", "-config", scenario, "-addr", "127.0.0.1:0",
		"-slot-seconds", fmt.Sprint(httpSlotSeconds))
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() { // keep draining so the child never blocks on the pipe
			if _, rest, ok := strings.Cut(sc.Text(), "on http://"); ok && !sent {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		_ = p.cmd.Wait()
		return nil, fmt.Errorf("serve exited before announcing its address: %s", p.stderr.String())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("serve did not announce its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("serve not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server (a graceful drain) and waits for it to
// exit, killing it if the drain stalls.
func (p *serveProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGINT)
	exited := make(chan struct{})
	go func() {
		<-p.done
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

// getJSON fetches an admin endpoint into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqRecord is one request's observation; bodies are kept and checked
// after the timed section.
type reqRecord struct {
	url    int // index into the run's request sequence
	status int // 0 for a transport error
	body   []byte
	dueUS  float64 // completion − due time
	rttUS  float64 // completion − actual send
	lateUS float64 // actual send − due time
}

func newConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   5 * time.Second,
	}
}

func doRequest(client *http.Client, url string, rec *reqRecord) {
	resp, err := client.Get(url)
	if err != nil {
		return
	}
	rec.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		rec.status = resp.StatusCode
	}
}

// openLoop sends urls[i] at start + i/rate over the clients, request i
// on connection i mod len(clients), each connection sleeping to its next
// due time — and never skipping one it is late for.
func openLoop(clients []*http.Client, urls []string, rate float64) []reqRecord {
	recs := make([]reqRecord, len(urls))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(urls); i += len(clients) {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				doRequest(clients[c], urls[i], &recs[i])
				end := time.Now()
				recs[i].url = i
				recs[i].dueUS = float64(end.Sub(due)) / 1e3
				recs[i].rttUS = float64(end.Sub(sent)) / 1e3
				recs[i].lateUS = float64(sent.Sub(due)) / 1e3
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// closedLoop keeps every connection busy back to back for d, walking the
// request sequence round and round.
func closedLoop(clients []*http.Client, urls []string, d time.Duration) []reqRecord {
	var mu sync.Mutex
	var all []reqRecord
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var recs []reqRecord
			for i := c; ; i += len(clients) {
				rec := reqRecord{url: i % len(urls)}
				sent := time.Now()
				if !sent.Before(stop) {
					break
				}
				doRequest(clients[c], urls[rec.url], &rec)
				rec.rttUS = float64(time.Since(sent)) / 1e3
				recs = append(recs, rec)
			}
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// tally classifies responses and checks every body.
type httpTally struct {
	n200, n429, n5xx, nOther, transport, malformed int
	bodyBytes                                      int
}

func (t *httpTally) add(recs []reqRecord, centers map[string]bool) {
	for i := range recs {
		r := &recs[i]
		t.bodyBytes += len(r.body)
		switch {
		case r.status == 0:
			t.transport++
		case r.status == http.StatusOK:
			t.n200++
			var body struct {
				Outcome string `json:"outcome"`
				Center  string `json:"center"`
				Level   *int   `json:"level"`
			}
			if json.Unmarshal(r.body, &body) != nil || body.Outcome != "admitted" || !centers[body.Center] || body.Level == nil {
				t.malformed++
			}
		case r.status == http.StatusTooManyRequests:
			t.n429++
			var body struct {
				Outcome string `json:"outcome"`
			}
			if json.Unmarshal(r.body, &body) != nil || !strings.HasPrefix(body.Outcome, "shed-") {
				t.malformed++
			}
		case r.status >= 500:
			t.n5xx++
		default:
			t.nOther++
		}
	}
}

// failed counts requests that are failures of the system: a 429 is a
// valid shed and is not one.
func (t *httpTally) failed() int { return t.transport + t.n5xx + t.nOther + t.malformed }

// buildServeBinary compiles ./cmd/profitlb from the checkout's source.
func buildServeBinary(o *options) (string, error) {
	bin := o.outPath(filepath.Join("bin", "profitlb"))
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/profitlb")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/profitlb: %v\n%s", err, out)
	}
	return bin, nil
}

// planPoller samples /admin/plan through the run and keeps each slot's
// committed objective.
type planPoller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	obj  map[int]float64
}

func startPlanPoller(base string) *planPoller {
	p := &planPoller{stop: make(chan struct{}), obj: map[int]float64{}}
	client := &http.Client{Timeout: 5 * time.Second}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(time.Duration(httpSlotSeconds / 4 * float64(time.Second)))
		defer tick.Stop()
		for {
			var plan struct {
				Slot      int     `json:"slot"`
				Objective float64 `json:"objective"`
			}
			if getJSON(client, base+"/admin/plan", &plan) == nil {
				p.mu.Lock()
				p.obj[plan.Slot] = plan.Objective
				p.mu.Unlock()
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *planPoller) finish() map[int]float64 {
	close(p.stop)
	p.wg.Wait()
	return p.obj
}

// runHTTPDispatch is the request-side workload: the real `profitlb serve`
// binary under an open-loop load on loopback.
func runHTTPDispatch(o *options) (*result, error) {
	res := newResult()
	view, err := buildHTTPScenario(o.seed)
	if err != nil {
		return nil, err
	}
	scenario := o.outPath("http-dispatch.scenario.json")
	if err := os.MkdirAll(filepath.Dir(scenario), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(scenario)
	if err != nil {
		return nil, err
	}
	if err := view.sc.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	bin, err := buildServeBinary(o) // build time is not set-up time
	if err != nil {
		return nil, err
	}

	var srv *serveProc
	stop := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
	}
	defer stop()
	setupS, err := timeSetups(o.smoke, func() (err error) {
		srv, err = startServe(bin, scenario)
		return err
	}, stop)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	admin := &http.Client{Timeout: 5 * time.Second}
	centers := map[string]bool{}
	for _, c := range view.sc.System.Centers {
		centers[c.Name] = true
	}

	// Half the run is the open loop — the traffic model, timed from the
	// due time, under which the plan hot-swaps must land — and half the
	// closed loop the bounded figures come from.
	openFor := o.seconds / 2
	closedFor := time.Duration((o.seconds - openFor) * float64(time.Second))
	streams := view.requestMix(o.seed, int(httpRate*openFor))
	paths := view.streamPaths()
	urls := make([]string, len(streams))
	for i, st := range streams {
		urls[i] = srv.base + paths[st]
	}
	clients := make([]*http.Client, httpConns)
	for i := range clients {
		clients[i] = newConnClient()
	}
	var tally httpTally
	// Warm the connections and the server's code paths before timing.
	tally.add(closedLoop(clients, urls, 100*time.Millisecond), centers)

	var st0, st1 dispatch.Stats
	if err := getJSON(admin, srv.base+"/admin/stats", &st0); err != nil {
		return nil, err
	}
	poller := startPlanPoller(srv.base)
	u0, s0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	recs := openLoop(clients, urls, httpRate)
	u1, s1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	closed := closedLoop(clients, urls, closedFor)
	objBySlot := poller.finish()
	if err := getJSON(admin, srv.base+"/admin/stats", &st1); err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}
	var timed httpTally
	timed.add(recs, centers)
	timed.add(closed, centers)
	tally.add(recs, centers)
	tally.add(closed, centers)

	// The server's own books must agree with what the client saw.
	if got, want := st1.TotalRequests, int64(tally.n200+tally.n429+tally.n5xx); got != want {
		res.problem("server counted %d dispatch requests, client completed %d", got, want)
	}
	if got, want := st1.TotalAdmitted, int64(tally.n200); got != want {
		res.problem("server admitted %d, client saw %d × 200", got, want)
	}
	if got, want := st1.TotalShed, int64(tally.n429); got != want {
		res.problem("server shed %d, client saw %d × 429", got, want)
	}
	swaps := st1.Swaps - st0.Swaps
	// Plan installs must land under live reads: at least three in a full
	// run (a shortened timed section cannot hold that many boundaries).
	if need := min(3, int(o.seconds/httpSlotSeconds)-1); int(swaps) < need {
		res.problem("only %d plan hot-swaps landed during the timed section, want at least %d", swaps, need)
	}

	// Profit: the objective the server committed for the slots that began
	// inside the timed section, which must match the in-process reference.
	lastSlot := int(o.seconds/httpSlotSeconds) - 1
	firstSlot := 1
	if lastSlot < 1 {
		firstSlot, lastSlot = 0, 0
	}
	var profit float64
	for slot := firstSlot; slot <= lastSlot; slot++ {
		abs := view.sc.StartSlot + slot
		got, ok := objBySlot[abs]
		if !ok {
			res.problem("slot %d was never seen on /admin/plan", abs)
			continue
		}
		if want := view.objectives[slot%len(view.objectives)]; relDiff(got, want) > 1e-9 {
			res.problem("slot %d: server committed objective %v, in-process reference %v", abs, got, want)
		}
		profit += got
	}
	profit /= float64(lastSlot - firstSlot + 1)

	res.attempted = len(recs) + len(closed)
	res.failed = timed.failed()
	res.samples = res.attempted
	if res.failed > 0 {
		res.problem("%d of %d requests failed (%d transport, %d 5xx, %d other status, %d malformed bodies)",
			res.failed, res.attempted, timed.transport, timed.n5xx, timed.nOther, timed.malformed)
	}
	// The bounded latency is each stream's quiet round trip: the floor (see
	// floors in slots.go) of ~30 µs of identical work repeated thousands of
	// times — taken in the closed loop, where nobody sleeps. In the open
	// loop server and client idle between requests, so most of a round
	// trip there is a halted vCPU being woken, the minimum is only ever a
	// luckier alignment of two schedulers, and over ten runs it swung by
	// 11 % (the 1st percentile by 5–11 %) where the closed loop's holds to
	// 2 %.
	var quiet floors
	for i := range closed {
		if closed[i].status == http.StatusOK {
			quiet.add(lap{streams[closed[i].url], time.Duration(closed[i].rttUS * 1e3)})
		}
	}
	var quietMS []float64 // per stream that was admitted
	var mixMS float64     // over the run's own stream mix
	served := 0
	for st, n := range quiet.repeats {
		if n > 0 {
			quietMS = append(quietMS, quiet.ms[st])
			mixMS += quiet.ms[st] * float64(n)
			served += n
		}
	}
	if served == 0 {
		return nil, fmt.Errorf("the closed loop completed no request")
	}
	mixMS /= float64(served)

	if !o.trace {
		res.e2e("setup_s", setupS, "s")
		res.e2e("ops_per_s", 1e3/mixMS, "1/s") // what one caller gets on a quiet box
		res.e2e("op_p50_ms", median(quietMS), "ms")
		res.e2e("op_p90_ms", percentile(quietMS, 90), "ms")
		res.e2e("peak_rss_mb", rss, "MB")
		res.e2e("profit_usd_per_slot", profit, "usd")
		return res, nil
	}

	due := make([]float64, len(recs))
	rtt := make([]float64, len(recs))
	late := make([]float64, len(recs))
	for i := range recs {
		due[i], rtt[i], late[i] = recs[i].dueUS, recs[i].rttUS, recs[i].lateUS
	}
	completed := float64(len(recs)) // of the open loop; a transport error fails the run anyway
	cpuUser, cpuSys := u1-u0, s1-s0
	m := res.layers
	m.set("op.raw_p50_ms", median(due)/1e3, "ms")
	m.set("op.raw_p90_ms", percentile(due, 90)/1e3, "ms")
	m.set("op.raw_p99_ms", percentile(due, 99)/1e3, "ms")
	m.set("op.floor_repeats", float64(quiet.minRepeats()), "count")
	m.set("box.slowdown", mean(rtt)/1e3/mixMS, "ratio")
	m.set("serve.cpu_user_us_per_req", cpuUser*1e6/completed, "us")
	m.set("serve.cpu_sys_us_per_req", cpuSys*1e6/completed, "us")
	m.set("serve.resp_bytes", float64(timed.bodyBytes)/float64(res.attempted), "B")
	m.set("serve.swap_count", float64(swaps), "count")
	m.set("http.rtt_p50_us", median(rtt), "us")
	m.set("http.rtt_p90_us", percentile(rtt, 90), "us")
	m.set("http.rtt_p99_us", percentile(rtt, 99), "us")
	m.set("http.shed_share", float64(timed.n429)/float64(res.attempted), "ratio")
	m.set("http.status_200", float64(timed.n200), "count")
	m.set("http.status_429", float64(timed.n429), "count")
	m.set("http.status_5xx", float64(timed.n5xx), "count")
	m.set("http.transport_errors", float64(timed.transport), "count")
	m.set("http.closed_rps", float64(len(closed))/closedFor.Seconds(), "1/s")
	m.set("loadgen.late_p50_us", median(late), "us")
	m.set("loadgen.late_max_us", percentile(late, 100), "us")

	ns, allocs := handleLoop(view, o.seed)
	m.set("dispatch.handle_ns", ns, "ns")
	m.set("dispatch.handle_allocs", allocs, "count")
	m.set("dispatch.handle_share", ns/1e3/((cpuUser+cpuSys)*1e6/completed), "ratio")
	if allocs != 0 {
		res.problem("Gateway.Handle allocates %v objects per call, want 0", allocs)
	}
	return res, nil
}

// handleLoop times a million in-process Gateway.Handle calls on slot 0's
// compiled table, with the request mix and the registry-backed scope the
// serve process uses, paced in virtual time under the planned budget.
func handleLoop(view *httpPlanView, seed int64) (nsPerCall, allocsPerCall float64) {
	const calls = 1_000_000
	sys := view.sc.System
	S := sys.S()
	gw := dispatch.NewGateway(sys, view.sc.DispatchConfig(), obs.NewScope(obs.NewRegistry(), nil))
	gw.Install(view.table0, 0, 0)
	var total float64
	for _, w := range view.weights {
		total += w
	}
	streams := view.requestMix(seed, 4096)
	dt := sys.Slot() / float64(calls) // the whole loop spans one slot of virtual time…
	if rate := httpHeadroom * total; float64(calls)/sys.Slot() > rate {
		dt = 1 / rate // …unless that would overrun the budget
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	admitted := 0
	for i := 0; i < calls; i++ {
		st := streams[i%len(streams)]
		if gw.Handle(st/S, st%S, float64(i)*dt).Outcome == dispatch.Admitted {
			admitted++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	_ = admitted
	// Background runtime work may allocate a handful of objects during
	// the loop; anything the call itself allocates shows up ≥ 1 per call.
	allocsPerCall = float64((ms1.Mallocs - ms0.Mallocs) / calls)
	return float64(elapsed.Nanoseconds()) / calls, allocsPerCall
}
