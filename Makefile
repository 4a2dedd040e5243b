# Development targets; `make check` is the CI gate
# (.github/workflows/ci.yml runs the same sequence).

GO ?= go

.PHONY: build vet test race liveness goldens perfbench-check check bench bench-json bench-gate eval serve eval-serve eval-json fuzz loadgen smoke fleet fleet-smoke trace-smoke

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, including the
# parallel Memo/MemoTable/Sharded tests.
race:
	$(GO) test -race ./...

# liveness repeats the singleflight panic tests: every memo that
# deduplicates concurrent misses, and internal/flight itself.
liveness:
	$(GO) test -race -count=10 -run 'TestPanicLiveness' .
	$(GO) test -race -count=10 ./internal/flight/

# goldens pins everything the VM produces: every suite program's full
# pipeline report, every paper table and figure (testdata/ goldens,
# rewritten with -update), and the exact VM fault strings. -v prints a
# drifted golden's diff.
goldens:
	$(GO) test -count=1 -v -run 'TestReportGolden|TestHarnessRendersAllExperiments|TestRuntimeErrors' ./internal/bench/ ./internal/interp/

# perfbench-check compiles and tests the benchmark runner, a nested module
# that root `go build ./...` skips, so a root API change that breaks it
# fails here rather than at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build vet race liveness goldens perfbench-check

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# bench-json snapshots the perf trajectory (hot-path ns + allocs/op,
# loadgen throughput, GET RTT p50/p99 over TCP loopback vs a unix
# socket) into the committed baseline; schema crcbench-perf/1.
bench-json:
	$(GO) run ./cmd/crcbench perfjson -o BENCH_10.json

# bench-gate re-measures and diffs against the committed baseline:
# allocs/op regressions fail hard, timing regressions warn (CI runs
# this).
bench-gate:
	$(GO) run ./cmd/crcbench perfjson -o bench-perf.json -compare BENCH_10.json

# eval regenerates every table and figure of the paper plus the ablations
# and the concurrent-runtime sweep.
eval:
	$(GO) run ./cmd/crcbench

# eval-json also writes the results + decision ledgers as JSON
# (BENCH_<date>.json).
eval-json:
	$(GO) run ./cmd/crcbench -json BENCH_$$(date +%Y%m%d).json

# eval-serve runs the evaluation with live /metrics, /decisions and
# /debug/pprof at localhost:8344.
eval-serve:
	$(GO) run ./cmd/crcbench serve -scale 8

# serve starts the networked reuse-cache tier (cache on :8345, metrics
# and the governor's decision ledger on :8346).
serve:
	$(GO) run ./cmd/crcserve

# loadgen hammers a running crcserve with a modeled fleet and prints
# throughput, RTT percentiles and governor decisions.
loadgen:
	$(GO) run ./cmd/crcserve loadgen

# fuzz exercises the wire codec's decoder against corrupt frames.
fuzz:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/wire/

# smoke is the CI loadgen smoke test: boot crcserve, drive 2s of real
# traffic, require nonzero shared hits and a clean SIGTERM drain — all
# under the race detector.
smoke:
	$(GO) test -race -count=1 -run 'TestLoadgenSmoke|TestCrcserve' -v ./cmd/crcserve/

# trace-smoke is the CI tracing smoke: loadgen with -trace 1 against an
# in-process server must stitch client roots to server spans, serve them
# at /traces, and the integration test must see every tier's span — all
# under the race detector.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestTraceSmoke|TestTraceStitchesAcrossTiers' -v . ./cmd/crcserve/

# fleet runs the distributed-tier demo: a 3-node in-process crcserve
# ring, replicated PUTs, a mid-run node kill, and a warm restart from
# the victim's drain-time snapshot.
fleet:
	$(GO) run ./cmd/crcbench fleet

# fleet-smoke is the CI failover smoke: kill-one-node with zero failed
# Do calls, ring-balance regression, snapshot round-trips — all under
# the race detector.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestPoolFailover|TestRingBalance|TestFleetDemo|TestSnapshot|TestShutdownWritesFinalSnapshot' -v . ./cmd/crcbench/ ./internal/reused/
