# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync:
# `make ci` is exactly what the workflow gates on.

GO ?= go
BENCH_TOLERANCE ?= 2.5

.PHONY: build vet fmt test race race-cpu bench benchgate bench-baseline docscheck dist-smoke share-smoke e2e-smoke chaos-smoke load-smoke load-baseline staticcheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Documentation gate: markdown links in the top-level docs and the
# docs/ reference pages must resolve, and every exported identifier
# in the public facade and in the wiring, optimizer, estimator,
# distribution, execution, serving, result-cache, simulated-world and
# tracing packages must carry a doc comment.
docscheck:
	$(GO) run ./cmd/docscheck \
		-md README.md,ARCHITECTURE.md,ROADMAP.md,docs/API.md,docs/OPERATIONS.md \
		-pkg .,./internal/boot,./internal/opt,./internal/card,./internal/dist,./internal/exec,./internal/serve,./internal/rescache,./internal/simweb,./internal/trace

# Distributed-optimization smoke: the coordinator/worker protocol
# under the race detector — two-plus-worker LocalTransport clusters
# (sharded search, wire bound-sync, epoch gossip, cache warmup) and
# the HTTP transport over loopback.
dist-smoke:
	$(GO) test -race -count=1 ./internal/dist

# Cross-query sharing smoke, all under the race detector: the
# shared≡unshared differential (result-cache clusters on all three
# worlds over LocalTransport and HTTP return byte-identical rows with
# strictly fewer logical calls on repeats), the epoch-invalidation
# staleness pins (a bump is never followed by a stale serve, locally
# or via gossip), and the /query coalescer edge cases (leader budget
# trips with live waiters, waiter detach, per-waiter traces).
share-smoke:
	$(GO) test -race -count=1 -run 'TestResultCache|TestWorkerGossip' ./internal/dist
	$(GO) test -race -count=1 ./internal/rescache ./internal/serve ./cmd/mdqserve

# End-to-end smoke: build the real binaries, start a coordinator and
# two mdqworker processes over loopback HTTP, answer a query through
# sharded optimization + fragment execution, and assert the answer
# matches single-process mdqrun output (plus the reverse gossip path
# reporting worker feedback upstream). The traced variant re-runs the
# query with "trace": true and asserts the worker spans — shipped
# across the wire — nest under the coordinator's dispatch spans with
# estimate-vs-actual populated on every plan node. Runs fine on a
# single-CPU dev box; the gate is correctness, not wall-clock.
e2e-smoke:
	$(GO) test -tags e2e -count=1 -v -run 'TestMultiProcessFragmentExecution|TestTracedFleetQuery' ./e2e

# Chaos smoke: SIGKILL a real mdqworker process while queries are in
# flight against a real coordinator. Every query — before, during and
# after the kill — must answer byte-identically to single-process
# mdqrun (dispatches to the corpse fail over via retry, invisibly),
# and the coordinator's /fleet view must mark the dead worker down.
chaos-smoke:
	$(GO) test -tags e2e -count=1 -v -timeout 5m -run TestChaosWorkerKill ./e2e

# Serving-path load smoke: a real coordinator + two-worker fleet over
# loopback takes a short closed-loop load run (mdqbench -load), the
# run must clear LOAD_BASELINE.json via loadgate under generous smoke
# tolerances, client-side request counts must reconcile with the
# server's /metrics, and a 1ms-deadline query must return a clean
# budget-exceeded JSON error. Set MDQ_LOAD_ARTIFACTS to keep the run
# JSON, /metrics and /slowlog snapshots for upload.
load-smoke:
	$(GO) test -tags e2e -count=1 -v -timeout 10m -run TestClosedLoopLoadGate ./e2e

# Refresh the committed serving baseline (run on the reference
# machine, against a freshly started fleet — see README).
load-baseline:
	$(GO) run ./cmd/mdqbench -load -clients 8 -warmup 2s -duration 10s \
		-out LOAD_BASELINE.json \
		-note "refreshed via make load-baseline on $$(uname -m), $$(date +%F)"

# Static analysis beyond go vet. The staticcheck binary is not vendored
# (this module is dependency-free); CI installs a pinned version. The
# target degrades to a notice when the tool is absent locally.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The benchmarks the gate tracks: the whole search on the large random
# topology and on the running example, phase 3 alone (Figure 8 and a
# travel-cold-shaped plan) and one cardinality annotation. The search
# benchmarks run 3 iterations; the microbenchmarks run for the default
# benchmark time, which steadies their ns/op.
GATE_SEARCH_BENCH = ^(BenchmarkOptimize|BenchmarkBranchAndBound$$)
GATE_MICRO_BENCH = ^(BenchmarkFigure8FetchAssignment|BenchmarkEstimatorAnnotate|BenchmarkFetchAssign)$$
GATE_BENCH_RUN = { $(GO) test -run=NONE -bench='$(GATE_SEARCH_BENCH)' -benchmem -benchtime=3x . && \
	$(GO) test -run=NONE -bench='$(GATE_MICRO_BENCH)' -benchmem . ; }

# Gate the tracked benchmarks against the committed baseline: fails
# when any benchmark runs slower than baseline × BENCH_TOLERANCE or
# allocates more than 1.1 × its baseline allocs/op.
benchgate:
	$(GATE_BENCH_RUN) | $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -tolerance $(BENCH_TOLERANCE)

# Refresh the committed baseline (run on the reference machine; the
# file records its CPU model and GOMAXPROCS).
bench-baseline:
	$(GATE_BENCH_RUN) | $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -update \
		-note "refreshed via make bench-baseline on $$(uname -m), $$(date +%F)"

# The optimizer's results must not depend on the core count: the
# estimator, phase 3 and the search (golden file, parallel ≡
# sequential differentials) under the race detector at 1, 2 and 4
# CPUs.
race-cpu:
	$(GO) test -race -cpu 1,2,4 ./internal/card ./internal/fetch ./internal/opt

ci: build vet fmt staticcheck docscheck race race-cpu dist-smoke share-smoke e2e-smoke chaos-smoke load-smoke bench benchgate
