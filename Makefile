GO ?= go

.PHONY: build test vet race fuzz verify verify-feeds verify-obs verify-dispatch verify-cluster verify-control verify-lp verify-mpc bench bench-lp-sparse bench-smoke benchall bench-e2e bench-compare loc

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
# plans through the routing-table compiler. FuzzWarmBasisImport throws
# hostile (mismatched, duplicated, dependent) seed bases at the warm
# solver and checks every accepted result against the cold path.
# FuzzSparseFactors drives arbitrary sparse matrices and basis-change
# sequences through the LU factor/eta-update machinery and checks every
# FTRAN/BTRAN solve against a dense reference.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s ./internal/workload/
	$(GO) test -run=NONE -fuzz=FuzzLoad -fuzztime=10s ./internal/config/
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzControlRescale -fuzztime=10s ./internal/dispatch/
	$(GO) test -run=NONE -fuzz=FuzzWarmBasisImport -fuzztime=10s ./internal/lp/
	$(GO) test -run=NONE -fuzz=FuzzSparseFactors -fuzztime=10s ./internal/linalg/

# verify is the repo's full check tier: build, vet, tests (./bench's
# unit tests and its every-workload smoke included), race tests, a
# one-iteration smoke of the plan-search benchmarks, the feed-layer
# resilience tier, the observability tier, the dispatch-plane tier, the
# replicated-fleet tier, the warm-start solver tier, and the
# rolling-horizon planning tier.
verify: build vet test race bench-smoke verify-feeds verify-obs verify-dispatch verify-cluster verify-control verify-lp verify-mpc

# verify-mpc is the rolling-horizon planning tier: the mpc package's
# unit, invariant and sim-level acceptance suites under the race
# detector (reduction bit-identity, the Houston vibration profit gate,
# never-loses on clean scenarios, fault-storm forced drains, and the
# abandoned-goroutine timeout hammer), the multi-step forecast property
# suite, the config-layer mpc block round-trip/validation/wiring, the
# two registered mpc experiments, and the CLI -horizon/-defer smoke.
verify-mpc:
	$(GO) vet ./internal/mpc/
	$(GO) test -race ./internal/mpc/
	$(GO) test -race -run 'TestPredictH' ./internal/forecast/
	$(GO) test -race -run 'TestMPC' ./internal/config/
	$(GO) test -race -run 'TestAllExperimentsRun/mpc1-priceshift|TestAllExperimentsRun/mpc2-faultdefer' ./internal/exp/
	$(GO) test -count=1 -run 'TestCmdSimulateMPCFlags' ./cmd/profitlb/

# verify-control is the closed-loop tier: the control package under the
# race detector (step-disturbance monotone settling, dead-band/hysteresis
# gates, freeze matrix, byte-identical actuation logs under concurrent
# traffic); the loadgen acceptance gates — clean scenario bit-identical
# with zero actuations, controller-beats-frozen under flash-crowd and
# slow-center faults, burst targeting leaves untargeted streams Poisson;
# the dispatch-side actuation primitives (Rescale, lexicographic (epoch,
# sub) fencing, MaxRate headroom/telescoping); and the cluster sub-epoch
# propagation suite.
verify-control:
	$(GO) vet ./internal/control/
	$(GO) test -race ./internal/control/
	$(GO) test -race -run 'TestControl|TestFleetControl|TestBurstTargeting|TestFlashCrowd|TestSlowCenter' ./internal/loadgen/
	$(GO) test -race -run 'TestRescale|TestInstallIfNewerLexicographic|TestWireSubMaxRate|TestCompileMaxRateHeadroom|TestSubdivideMaxRateTelescopes' ./internal/dispatch/
	$(GO) test -race -run 'TestPublishControl|TestReplicaSubEpochFence|TestPartitionedReplicaKeepsFencedSub|TestStaleDowngradeAppliesExactlyOnce' ./internal/cluster/
	$(GO) test -count=1 -run 'TestServeControlSmoke' ./cmd/profitlb/

# verify-lp is the solver tier: the lp package (cold/warm simplex,
# basis export/import, hot re-solve audits, the sparse revised simplex
# with its dual-cycling regression and cold-audit suites) and the
# sparse LU/eta kernels in linalg, plus the planner warm-start and
# sparse suites — chain equivalence vs cold, sparse-vs-dense chain
# agreement, sparse-off bit-identity, worker-count invariance,
# iteration-limit escalation, horizon warm and sparse windows — under
# the race detector, with the memo-cache contention benchmark as a
# smoke.
verify-lp:
	$(GO) vet ./internal/lp/ ./internal/linalg/ ./internal/core/
	$(GO) test -race ./internal/lp/ ./internal/linalg/
	$(GO) test -race -run 'TestWarm|TestSparse|TestLevelSearchWarmChain|TestHorizonPlannerWarm|TestHorizonPlannerSparse|TestPerServerIgnoresWarmStart|TestIterationLimitEscalates|TestStats|TestParallelPlansBitIdentical' ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkSubsetCacheContention -benchtime=1x ./internal/core/

# verify-cluster is the replicated-fleet tier: the cluster package
# (epoch fencing, membership, staleness TTL, HTTP long-poll subscriber)
# under the race detector; the fleet replays — including the seeded
# replica-kill chaos smoke (TestFleetReplicaKillStorm) and the
# publisher-outage stale-serving gate; the dispatch-side cluster
# primitives (epoch fence, token carry, subdivision, wire round-trip,
# driver multi-slot recovery); and the fleet/join/readyz serve smokes.
verify-cluster:
	$(GO) vet ./internal/cluster/
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestFleet|TestRunFleet' ./internal/loadgen/
	$(GO) test -race -run 'TestEpochFence|TestTokenCarry|TestSubdivide|TestWireRoundTrip|TestFromWireRejectsHostile|TestScaleConservativeShed|TestDriverMultiSlotRecovery' ./internal/dispatch/
	$(GO) test -count=1 -run 'TestServeReadyz|TestServeFleetSmoke|TestServeJoinSmoke' ./cmd/profitlb/

# verify-dispatch is the online serving tier: the dispatch and loadgen
# packages under the race detector (seeded-routing determinism is
# asserted there with concurrent callers), plus the serve smoke through
# the CLI — boot the gateway on a free port, fire a burst with the load
# generator, check every endpoint, and drain cleanly.
verify-dispatch:
	$(GO) vet ./internal/dispatch/ ./internal/loadgen/
	$(GO) test -race ./internal/dispatch/ ./internal/loadgen/
	$(GO) test -count=1 -run 'TestServe' ./cmd/profitlb/

# verify-obs is the observability tier: the obs package under the race
# detector, the sim-level integration tests (bit-identical guard,
# escalation/trace agreement, golden trace), the worker-panic regression,
# and the CLI -metrics/-trace/-pprof smokes.
verify-obs:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'TestObs' ./internal/sim/
	$(GO) test -race -run 'TestMapOrderedWorkerPanicBecomesError' ./internal/core/
	$(GO) test -count=1 -run 'TestCmdSimulateObs|TestCmdChaosObs|TestCmdSimulatePprofSmoke' ./cmd/profitlb/

# verify-feeds is the telemetry-resilience tier: the feed package (and
# its sim integration) under the race detector, plus a one-shot
# chaos-with-feeds smoke through the CLI.
verify-feeds:
	$(GO) test -race ./internal/feed/ ./internal/resilient/
	$(GO) test -race -run 'TestFeedPath|TestCompareLanes|TestDarkFeeds|TestFeedEscalation' ./internal/sim/
	$(GO) test -count=1 -run 'TestCmdChaosFeeds|TestCmdSimulateFeeds' ./cmd/profitlb/

# bench compares the serial and parallel plan searches on the
# rob2-chaos-scale slot, the dense-warm vs sparse re-solve chains on
# the large 100-center topology, and the rolling-horizon sweep on the
# Houston vibration window. The -count runs feed benchstat directly
# (`make bench | benchstat -`), and the timing trajectories — speedups,
# LP solves, cache hits, pivot counts, per-horizon run latency — land in
# BENCH_plan.json under the "plan_search", "warm_start" and "mpc" keys.
bench:
	$(GO) test -bench=BenchmarkPlanSearch -benchtime=5x -count=6 -run=NONE .
	BENCH_PLAN_JSON=BENCH_plan.json $(GO) test -count=1 -run='TestPlanSearchTrajectory|TestWarmStartTrajectory|TestMPCHorizonTrajectory' .
	$(GO) test -bench=BenchmarkDispatch -count=6 -run=NONE ./internal/dispatch/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestDispatchHotPathTrajectory ./internal/dispatch/
	$(GO) test -bench=BenchmarkControlTick -count=6 -run=NONE ./internal/control/
	BENCH_DISPATCH_JSON=$(CURDIR)/BENCH_dispatch.json $(GO) test -count=1 -run=TestControlTickTrajectory ./internal/control/

# bench-lp-sparse re-runs just the solver trajectory: the dense-warm vs
# sparse re-solve chains on the 100-center topology, recording
# steady-state hot re-solve latency, pivot counts and abandoned-pivot
# spend under the "warm_start" key of BENCH_plan.json and enforcing the
# >= 3x sparse steady-state gate.
bench-lp-sparse:
	BENCH_PLAN_JSON=BENCH_plan.json $(GO) test -count=1 -run='TestWarmStartTrajectory' -v .

# bench-smoke proves every plan-search benchmark still runs (one
# iteration, no timing claims); wired into verify.
bench-smoke:
	$(GO) test -bench=BenchmarkPlanSearch -benchtime=1x -run=NONE .

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
# and their sum — the figure simplicity PRs report before and after.
loc:
	@for d in cmd/profitlb bench internal/*/; do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) $${d%/}; \
	done | awk '{ print; sum += $$1 } END { printf "%6d total\n", sum }'
