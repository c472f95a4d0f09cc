GO ?= go

.PHONY: build test vet fmt-check race fuzz verify soak soak-smoke bench bench-lp-sparse bench-smoke profile benchall bench-e2e bench-compare bench-pairs loc knobs fma-audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; it exercises
# sim.Compare's parallel lanes. The planner packages start no goroutine
# and use no lock (TestPlannersRunOnTheCallersGoroutine holds that).
race:
	$(GO) test -race ./...

# fuzz gives each fuzz target a short budget beyond its checked-in
# corpus. FuzzLoad's seeds include feeds blocks, feed fault events,
# dispatch blocks, cluster blocks and cluster fault events, so those
# config decoders are fuzzed here too. FuzzCompile drives arbitrary
# plans through the routing-table compiler and holds every table it
# accepts to the transforms' laws (wire round trip and rescale by ones are
# identities, subdivision shares sum back exactly, scale by one only marks
# the table). FuzzFromWire feeds raw bytes down a join-mode replica's path
# — JSON, FromWire, the topology gate, install, serve — and requires a
# refusal or a served request, never a panic. FuzzReplicaFence drives one
# replica through byte-decoded deliveries (epoch, sub, member or not, slot)
# and staleness ticks: the served (epoch, sub) stays the largest accepted
# stamp, and every refused delivery is counted exactly once (stale,
# duplicate or not-member) without touching the serving table.
# FuzzSparseFactors drives arbitrary sparse matrices and basis-change
# sequences through the LU factor/eta-update machinery and checks every
# FTRAN/BTRAN solve — the list-returning ones for their lists and scratch
# too — against a dense reference or by residual. FuzzKernelDifferential
# solves one generated small LP on each kernel by a fresh start, by the warm
# chain's first solve, hot after its numbers drifted and as a trial from the
# checkpoint back to the first numbers, and holds every answer to the dense
# cold verdict, objective and a primal-dual certificate against the model
# itself. FuzzTrialRollback
# walks a dispatch-shaped LP through commodities fixed out and back and
# budgets moved, solving each state as a trial from a checkpoint on both
# kernels: each is held to a cold solve of the subset model its pins stand
# for, and re-run after its rollback to the bit (core's
# TestTrialsMatchSubsetLPs, in make test, holds the planners' trials to
# their subset LPs on the oracle cases). FuzzRefresh walks
# one held dispatch LP through arbitrary changes of prices, arrivals,
# topology, deadlines and floors and checks it against a from-scratch build
# each step. FuzzHorizonRefresh does the same for one held horizon-window
# LP: sliding windows, a backlog coming and going, centers priced out of
# some blocks, the window cut short, allowances changed. FuzzBigMOracle
# decodes small systems (≤ 2 centers × 2 front-ends × 2 types, ≤ 3
# levels) and holds the level searches and Optimized's greedy seed to the
# paper's program solved exactly (DESIGN §15). FuzzRoutePass decodes small
# systems (≤ 4 front-ends, ≤ 3 levels) and holds the planner's route pass
# to UnitProfit bit for bit: the best route and every λ's LP coefficient.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s ./internal/workload/
	$(GO) test -run=NONE -fuzz=FuzzLoad -fuzztime=10s ./internal/config/
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzControlRescale -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzFromWire -fuzztime=10s ./internal/cluster/
	$(GO) test -run=NONE -fuzz=FuzzReplicaFence -fuzztime=10s ./internal/cluster/
	$(GO) test -run=NONE -fuzz=FuzzKernelDifferential -fuzztime=10s ./internal/lp/
	$(GO) test -run=NONE -fuzz=FuzzTrialRollback -fuzztime=10s ./internal/lp/
	$(GO) test -run=NONE -fuzz=FuzzSparseFactors -fuzztime=10s ./internal/linalg/
	$(GO) test -run=NONE -fuzz=FuzzRefresh -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzHorizonRefresh -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzBigMOracle -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzRoutePass -fuzztime=10s ./internal/core/

# fmt-check fails when any file is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# verify is the repo's full check tier: build, vet, gofmt, tests
# (./bench's unit tests and its every-workload smoke included), the same
# suite under the race detector, a one-iteration smoke of the
# benchmarks and a 1 000-slot smoke of the long soak. Every package's
# tier — feeds, obs, dispatch, cluster, control, lp, mpc — is a subset of
# `test` and `race`.
verify: build vet fmt-check test race bench-smoke soak-smoke

# soak runs the two all-planes fleet soaks (TestFleetSoak and
# TestFleetSoakMPCFeeds, internal/loadgen) for SOAK slots, 10 000 by
# default (`go test` runs them at 200), the storm's fault counts scaled
# with the length. Each fails on a fence that goes back, a replica's
# Stats that do not reconcile with what was fired at it, a Handle that
# allocates, a deferral ledger that does not balance, or a post-GC live
# heap that ends more than 1 MiB above its slot-50 reading; -v logs the
# heap's slope in bytes a slot. On a 2-CPU box 10 000 slots take ~15
# minutes; soak-smoke, 1 000 slots, about a minute and a half.
SOAK ?= 10000
soak:
	$(GO) test -count=1 -timeout 0 -run '^(TestFleetSoak|TestFleetSoakMPCFeeds)$$' -v ./internal/loadgen/ -soak.slots=$(SOAK)

soak-smoke:
	$(MAKE) soak SOAK=1000

# bench times the plan search on the rob2-chaos-scale slot ({cold, warm}
# x {level-search, optimized}), the warm chain on the large 100-center
# topology (the fresh start that arms it, first re-use, steady hot
# re-solves, each on its own line), and the rolling-horizon sweep on the
# Houston vibration window. The -count runs feed benchstat directly
# (`make bench | benchstat -`), and the timing trajectories — per-row
# times, LP solves, pivot counts, per-horizon run latency —
# land in BENCH_plan.json under the "plan_search", "warm_start" and
# "mpc" keys.
bench:
	$(GO) test -bench=BenchmarkPlanSearch -benchtime=5x -count=6 -run=NONE .
	BENCH_PLAN_JSON=BENCH_plan.json $(GO) test -count=1 -run='TestPlanSearchTrajectory|TestWarmStartTrajectory|TestMPCHorizonTrajectory' .
	$(GO) test -bench=BenchmarkDispatch -count=6 -run=NONE ./internal/dispatch/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestDispatchHotPathTrajectory ./internal/dispatch/
	$(GO) test -bench=BenchmarkControlTick -count=6 -run=NONE ./internal/control/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestControlTickTrajectory ./internal/control/

# bench-lp-sparse is where lp's sparseMinRows comes from: both warm kernels'
# hot re-solves of dispatch-shaped LPs from 12 to 88 rows (DESIGN §12.1
# holds the recorded table; `| benchstat -` reads the output).
bench-lp-sparse:
	$(GO) test -bench=BenchmarkKernelCrossover -benchtime=10000x -count=6 -run=NONE ./internal/lp/

# bench-smoke proves the plan-search benchmarks, the whole fleet slot
# commit's (BenchmarkFleetSlot, both fleets), the dispatch-LP builder
# benchmark, the three rows of the refine slot benchmark — demand-limited,
# where the dual bound turns every move down, capacity-limited, where
# ~145 survivors are solved, and paper-day, the Section VI day's busiest
# slot — the capture slot benchmark, the horizon
# window benchmark (first build and steady refresh), the sparse kernel's
# hot-pivot benchmark, its fresh start from the all-slack basis (pivots and
# refactorizations a start), the two-kernel crossover sweep and the routing-table
# benchmarks (compile, and the 8-replica decode, shares and installs) still
# run (one iteration, no timing claims); wired into verify.
bench-smoke:
	$(GO) test -bench='BenchmarkPlanSearch|BenchmarkFleetSlot' -benchtime=1x -run=NONE .
	$(GO) test -bench='BenchmarkHotPivot|BenchmarkFreshStart|BenchmarkKernelCrossover' -benchtime=1x -run=NONE ./internal/lp/
	$(GO) test -bench='BenchmarkBuildDispatchLP|BenchmarkRefineSlot|BenchmarkCaptureSlot|BenchmarkHorizonSlot' -benchtime=1x -run=NONE ./internal/core/
	$(GO) test -bench='BenchmarkCompile|BenchmarkApply' -benchtime=1x -run=NONE ./internal/dispatch/

# profile writes a CPU and an allocation profile into the git-ignored
# prof/ and prints the top of each, with no edit to bench/: W=refine (the
# default) profiles BenchmarkRefineSlot/capacity-limited, the
# fleet-refine-mid slot at three times the arrivals, whose ~145 moves the
# dual bound lets through are solved as trials from their incumbents'
# kernels (the recorded slot itself is two hot re-solves); W=day profiles
# BenchmarkRefineSlot/paper-day, the paper-day workload's busiest slot: a
# 24-row dense capture re-solved hot and six dense trials on its kernel,
# five of them cut by their cutoff; W=mid profiles
# BenchmarkRefineSlot/demand-limited, that recorded 6x10x3 slot — the
# planner side of fleet-refine-mid: the capture and the greedy start, each
# refreshed and re-solved hot on its own chain, every move bounded;
# W=fleet profiles BenchmarkFleetSlot/refine-mid-6x10x3, the whole
# fleet-refine-mid commit through cluster.Fleet.BeginSlot — feed fetch and
# input assembly, the resilient chain's plan, compile, wire, publish, the
# shared decode and the 4 replicas' shares and installs — with no edit to
# bench/ (its fleet-large twin is BenchmarkFleetSlot/large-20x100x3);
# W=large profiles TestWarmStartTrajectory's
# 20x100x3 chain, three passes of which the all-slack fresh start that arms
# slot 0 is nearly all — what a fleet-large planner pays once;
# W=commit profiles BenchmarkCaptureSlot/fleet-20x100x3, the planner's whole
# share of a fleet-large commit — refresh (or rebuild) of the held LP, hot
# re-solve, extraction, the plan refilled in the one handed back;
# W=apply profiles BenchmarkApply, the replica half of that commit — the
# synthetic 20x100x3 routing table decoded once from its wire form, 8
# replicas' shares cut together and each installed (Compile alone is
# BenchmarkCompile/fleet-20x100x3); W=kernel profiles BenchmarkHotPivot/slot, the
# sparse kernel's hot re-solve of a generated 2160-row dispatch-shaped LP
# at ~15 pivots a solve, with no planner on top; W=fresh profiles
# BenchmarkFreshStart, that LP started over from the all-slack basis — a
# zero-cost repair of ~2 000 dual pivots, most under Bland's rule, on an
# indexed eta file of up to rows/4 updates, then the priced finish: 5
# refactorizations — what an outage, a recovery or a planner's first slot
# pays at fleet-large; W=horizon profiles
# BenchmarkHorizonSlot/steady, a held horizon-4 window of the 6x10x3 fleet
# refreshed and re-solved hot. Dig further with
# `go tool pprof -list <regexp> prof/$(W).test prof/$(W).cpu`.
W ?= refine
profile:
	@mkdir -p prof
ifeq ($(W),large)
	BENCH_PLAN_JSON=$(CURDIR)/prof/plan.json $(GO) test -count=1 -run=TestWarmStartTrajectory -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem .
else ifeq ($(W),commit)
	$(GO) test -run=NONE -bench=BenchmarkCaptureSlot/fleet -benchtime=2000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/core/
else ifeq ($(W),apply)
	$(GO) test -run=NONE -bench=BenchmarkApply -benchtime=2000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/dispatch/
else ifeq ($(W),kernel)
	$(GO) test -run=NONE -bench=BenchmarkHotPivot/slot -benchtime=3000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/lp/
else ifeq ($(W),fresh)
	$(GO) test -run=NONE -bench=BenchmarkFreshStart -benchtime=100x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/lp/
else ifeq ($(W),fleet)
	$(GO) test -run=NONE -bench=BenchmarkFleetSlot/refine-mid -benchtime=5000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 .
else ifeq ($(W),mid)
	$(GO) test -run=NONE -bench=BenchmarkRefineSlot/demand-limited -benchtime=20000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/core/
else ifeq ($(W),day)
	$(GO) test -run=NONE -bench=BenchmarkRefineSlot/paper-day -benchtime=20000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/core/
else ifeq ($(W),horizon)
	$(GO) test -run=NONE -bench=BenchmarkHorizonSlot/steady -benchtime=3000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/core/
else
	$(GO) test -run=NONE -bench=BenchmarkRefineSlot/capacity-limited -benchtime=300x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/core/
endif
	$(GO) tool pprof -top -nodecount=30 prof/$(W).test prof/$(W).cpu
	$(GO) tool pprof -top -nodecount=30 -sample_index=alloc_space prof/$(W).test prof/$(W).mem

# benchall sweeps the full paper-artifact benchmark suite once.
benchall:
	$(GO) test -bench=. -benchtime=1x -run=NONE ./...

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares: every
# workload in its own child process, untraced then traced, results under
# bench/out/ and one line appended to bench/history.jsonl.
bench-e2e:
	$(GO) run ./bench -all

# bench-compare judges two bench-e2e result files against BENCHMARK.json's
# bounds (exit 1 on a regression): make bench-compare A=old.json B=new.json
bench-compare:
	$(GO) run ./bench compare $(A) $(B)

# bench-pairs is the A/B re-check a performance change is judged by: it
# builds ./bench for BASE (a temporary checkout) and for the working tree,
# runs N alternating --seed 7 --seconds 20 --trace 0 pairs of workload W,
# each binary from its own checkout, and prints every pair's change/parent
# ratio of each end-to-end metric, each metric's median ratio and how many
# pairs it improved in (scripts/bench-pairs.sh): make bench-pairs
# W=fleet-refine-mid N=10 BASE=HEAD~1.
N ?= 10
BASE ?= HEAD
bench-pairs:
	sh scripts/bench-pairs.sh $(W) $(N) $(BASE)

# fma-audit checks the census of fusable float expressions behind
# TestFusableSitesAreCensused (testdata/fma_census.txt) against the fused
# multiply-adds a GOARCH=arm64 build -a -gcflags=-S emits under internal/
# (~30 s): it fails on a fused line with no census site and lists the
# census sites arm64 leaves unfused (scripts/fma-audit.sh).
fma-audit:
	GO=$(GO) sh scripts/fma-audit.sh

# loc prints the non-test .go line count (plain wc -l) of every package
# and their sum — the figure simplicity PRs report before and after — and,
# for each internal package, how many other packages import it outside
# tests: a 0 or 1 there is the next candidate for folding or deletion.
loc:
	@{ $(GO) list -f '{{range .Imports}}imp {{.}}{{"\n"}}{{end}}' ./...; \
		for d in cmd/profitlb bench internal/*/; do \
			echo "loc $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) $${d%/}"; \
		done; } | awk 'BEGIN { print " lines importers package" } \
		$$1 == "imp" { sub("^profitlb/", "", $$2); n[$$2]++; next } \
		{ printf "%6d %9s %s\n", $$2, ($$3 ~ /^internal\//) ? n[$$3] + 0 : "-", $$3; sum += $$2 } \
		END { printf "%6d %9s total\n", sum, "" }'

# knobs prints, for every exported field of the option structs below, how
# many places outside the owning package and outside tests set it — a
# composite-literal key of the struct, or an assignment `.Field =` in a
# file that imports the package; the root facade's aliases of the struct
# (`Optimized = core.Optimized` in profitlb.go) count the same way in a
# file that imports profitlb (grep-level: no type information, so a
# same-named field of another struct in such a file counts too). A 0 is an
# option no caller has ever given a value: the next candidate for a
# constant (PR 24 turned 31 of them into constants on this census). Rows
# that read 0 on purpose, and why:
#   cluster.Config PollWaitMs/MaxAttempts/BaseBackoffMs/TimeoutMs and
#   dispatch.Config FrontEnds/DrainSeconds — deployment settings (wall-clock
#   timings, which front-ends a host exposes): a scenario file sets them,
#   no Go caller does, and the HTTP tests shorten the timings;
#   feed.Config EscalateOnDark — a scenario-file switch that turns a
#   behaviour on (the resilient chain skips its primary tier on dark
#   feeds), read by config.BuildPlanner;
#   dispatch.Config Burst/MinBurst — one-valued outside tests, but 27 test
#   sites use them as the seam to small token buckets;
#   lp.Options MaxIterations/Tol/Bland and core.EngineOptions LPOpts —
#   one-valued; bench/ spells lp.Options and LPOpts, so they go with
#   ROADMAP item 8 (as do the two ignored Sparse fields bench/ assigns).
knobs:
	@files=$$(ls *.go cmd/*/*.go bench/*.go examples/*/*.go internal/*/*.go | grep -v _test.go); \
	echo " setters option"; \
	for t in internal/feed:Config internal/cluster:Config internal/dispatch:Config internal/mpc:Config \
			internal/loadgen:Config internal/lp:Options internal/core:EngineOptions internal/core:Optimized internal/core:LevelSearch; do \
		d=$${t%:*}; T=$${t#*:}; q=$${d##*/}; \
		fields=$$(ls $$d/*.go | grep -v _test.go | xargs awk -v T="$$T" ' \
			$$0 == "type " T " struct {" { on = 1; next } \
			on && /^}/ { on = 0 } \
			on && /^\t[A-Z][A-Za-z0-9_]*[ ,]/ { \
				n = split(substr($$0, 2), w, /[ \t]+/); \
				for (i = 1; i <= n; i++) { c = sub(/,$$/, "", w[i]); print w[i]; if (!c) break } }'); \
		aliases=$$(awk -v Q="$$q" -v T="$$T" '$$0 ~ ("=[ \t]*" Q "\\." T "[ \t]*$$") { sub(/^[ \t]*(type[ \t]+)?/, ""); print $$1 }' profitlb.go); \
		echo $$files | tr ' ' '\n' | grep -v "^$$d/" | xargs awk -v Q="$$q" -v T="$$T" -v D="$$d" -v fields="$$fields" -v aliases="$$aliases" ' \
			BEGIN { nf = split(fields, F, /[ \n]+/); na = split(aliases, A); O[1] = Q "." T "{"; \
				for (i = 1; i <= na; i++) O[i + 1] = "profitlb." A[i] "{" } \
			FNR == 1 { imp = 0; depth = 0 } \
			index($$0, "\"profitlb/" D "\"") || na && index($$0, "\"profitlb\"") { imp = 1 } \
			{ line = $$0; sub(/\/\/.*/, "", line); \
				if (imp) for (i = 1; i <= nf; i++) if (line ~ ("\\." F[i] "[ \t]*[-+*/]?=([^=]|$$)")) n[F[i]]++; \
				if (depth == 0) { \
					for (o = 1; o <= na + 1; o++) if ((p = index(line, O[o]))) break; \
					if (!p) next; line = substr(line, p + length(O[o])); depth = 1 } \
				lit = ""; \
				for (j = 1; j <= length(line) && depth > 0; j++) { \
					ch = substr(line, j, 1); \
					if (ch == "{") depth++; else if (ch == "}") depth--; \
					lit = lit ch } \
				for (i = 1; i <= nf; i++) if (lit ~ ("(^|[^A-Za-z0-9_.])" F[i] ":")) n[F[i]]++ } \
			END { for (i = 1; i <= nf; i++) printf "%8d %s.%s.%s\n", n[F[i]] + 0, Q, T, F[i] }'; \
	done
