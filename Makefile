GO ?= go

.PHONY: build test vet fmt-check race fuzz verify bench bench-lp-sparse bench-smoke profile benchall bench-e2e bench-compare loc knobs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; it exercises the
# resilient chain's deadline goroutines and sim.Compare's parallel lanes.
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
# refusal or a served request, never a panic. FuzzWarmBasisImport throws
# hostile (mismatched, duplicated, dependent) seed bases at the warm
# solver and checks every accepted result against the cold path.
# FuzzSparseFactors drives arbitrary sparse matrices and basis-change
# sequences through the LU factor/eta-update machinery and checks every
# FTRAN/BTRAN solve — the list-returning ones for their lists and scratch
# too — against a dense reference or by residual. FuzzKernelDifferential
# solves one generated small LP dense cold, dense warm, sparse by crash and
# sparse hot after a drift, and holds the four to one verdict, one objective
# and a primal-dual certificate against the model itself. FuzzRefresh walks
# one held dispatch LP through arbitrary changes of prices, arrivals,
# topology, deadlines and floors and checks it against a from-scratch build
# each step. FuzzHorizonRefresh does the same for one held horizon-window
# LP: sliding windows, a backlog coming and going, centers priced out of
# some blocks, the window cut short, allowances changed.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s ./internal/workload/
	$(GO) test -run=NONE -fuzz=FuzzLoad -fuzztime=10s ./internal/config/
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzControlRescale -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzFromWire -fuzztime=10s ./internal/cluster/
	$(GO) test -run=NONE -fuzz=FuzzWarmBasisImport -fuzztime=10s ./internal/lp/
	$(GO) test -run=NONE -fuzz=FuzzKernelDifferential -fuzztime=10s ./internal/lp/
	$(GO) test -run=NONE -fuzz=FuzzSparseFactors -fuzztime=10s ./internal/linalg/
	$(GO) test -run=NONE -fuzz=FuzzRefresh -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzHorizonRefresh -fuzztime=10s ./internal/core/

# fmt-check fails when any file is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# verify is the repo's full check tier: build, vet, gofmt, tests
# (./bench's unit tests and its every-workload smoke included), the same
# suite under the race detector, and a one-iteration smoke of the
# benchmarks. Every package's tier — feeds, obs, dispatch, cluster,
# control, lp, mpc — is a subset of `test` and `race`.
verify: build vet fmt-check test race bench-smoke

# bench times the plan search on the rob2-chaos-scale slot ({cold, warm}
# x {level-search, optimized}), the warm chain on the large 100-center
# topology (arming import, first re-use, steady hot re-solves, each on its
# own line), and the rolling-horizon sweep on the
# Houston vibration window. The -count runs feed benchstat directly
# (`make bench | benchstat -`), and the timing trajectories — per-row
# times, LP solves, cache hits, pivot counts, per-horizon run latency —
# land in BENCH_plan.json under the "plan_search", "warm_start" and
# "mpc" keys.
bench:
	$(GO) test -bench=BenchmarkPlanSearch -benchtime=5x -count=6 -run=NONE .
	BENCH_PLAN_JSON=BENCH_plan.json $(GO) test -count=1 -run='TestPlanSearchTrajectory|TestWarmStartTrajectory|TestMPCHorizonTrajectory' .
	$(GO) test -bench=BenchmarkDispatch -count=6 -run=NONE ./internal/dispatch/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestDispatchHotPathTrajectory ./internal/dispatch/
	$(GO) test -bench=BenchmarkControlTick -count=6 -run=NONE ./internal/control/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestControlTickTrajectory ./internal/control/

# bench-lp-sparse is where lp's sparseMinRows comes from: both warm kernels
# on dispatch-shaped LPs from 12 to 88 rows, hot re-solve and seeded import
# (DESIGN 12.1 holds the recorded table; `| benchstat -` reads the output).
bench-lp-sparse:
	$(GO) test -bench=BenchmarkKernelCrossover -benchtime=10000x -count=6 -run=NONE ./internal/lp/

# bench-smoke proves the plan-search benchmarks, the dispatch-LP builder
# benchmark, both rows of the refine slot benchmark — demand-limited,
# where the dual bound turns every move down, and capacity-limited, where
# ~135 survivors are solved — the capture slot benchmark, the horizon
# window benchmark (first build and steady refresh), the sparse kernel's
# hot-pivot benchmark and the two-kernel crossover sweep still run (one
# iteration, no timing claims); wired into verify.
bench-smoke:
	$(GO) test -bench=BenchmarkPlanSearch -benchtime=1x -run=NONE .
	$(GO) test -bench='BenchmarkHotPivot|BenchmarkKernelCrossover' -benchtime=1x -run=NONE ./internal/lp/
	$(GO) test -bench='BenchmarkBuildDispatchLP|BenchmarkRefineSlot|BenchmarkCaptureSlot|BenchmarkHorizonSlot' -benchtime=1x -run=NONE ./internal/core/

# profile writes a CPU and an allocation profile into the git-ignored
# prof/ and prints the top of each, with no edit to bench/: W=refine (the
# default) profiles BenchmarkRefineSlot/capacity-limited, the
# fleet-refine-mid slot at three times the arrivals, whose ~135 moves the
# dual bound lets through are solved from their incumbents' bases (the
# recorded slot itself is two LPs now); W=large profiles TestWarmStartTrajectory's
# 20x100x3 chain, three passes of which the all-slack import that arms
# slot 0 is nearly all — what a fleet-large planner pays once;
# W=commit profiles BenchmarkCaptureSlot/fleet-20x100x3, the planner's whole
# share of a fleet-large commit — refresh (or rebuild) of the held LP, hot
# re-solve, extraction, plan; W=kernel profiles BenchmarkHotPivot/slot, the
# sparse kernel's hot re-solve of a generated 2160-row dispatch-shaped LP
# at ~15 pivots a solve, with no planner on top; W=horizon profiles
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
else ifeq ($(W),kernel)
	$(GO) test -run=NONE -bench=BenchmarkHotPivot/slot -benchtime=3000x -o prof/$(W).test -cpuprofile prof/$(W).cpu -memprofile prof/$(W).mem -memprofilerate=4096 ./internal/lp/
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
# file that imports the package (grep-level: no type information, so a
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
#   core.Optimized MinCompletion — set through the root facade
#   (examples/fairness), whose files import profitlb, not internal/core;
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
		echo $$files | tr ' ' '\n' | grep -v "^$$d/" | xargs awk -v Q="$$q" -v T="$$T" -v D="$$d" -v fields="$$fields" ' \
			BEGIN { nf = split(fields, F, /[ \n]+/); open = Q "." T "{" } \
			FNR == 1 { imp = 0; depth = 0 } \
			index($$0, "\"profitlb/" D "\"") { imp = 1 } \
			{ line = $$0; sub(/\/\/.*/, "", line); \
				if (imp) for (i = 1; i <= nf; i++) if (line ~ ("\\." F[i] "[ \t]*[-+*/]?=([^=]|$$)")) n[F[i]]++; \
				if (depth == 0) { p = index(line, open); if (!p) next; line = substr(line, p + length(open)); depth = 1 } \
				lit = ""; \
				for (j = 1; j <= length(line) && depth > 0; j++) { \
					ch = substr(line, j, 1); \
					if (ch == "{") depth++; else if (ch == "}") depth--; \
					lit = lit ch } \
				for (i = 1; i <= nf; i++) if (lit ~ ("(^|[^A-Za-z0-9_.])" F[i] ":")) n[F[i]]++ } \
			END { for (i = 1; i <= nf; i++) printf "%8d %s.%s.%s\n", n[F[i]] + 0, Q, T, F[i] }'; \
	done
