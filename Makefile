GO ?= go
FUZZTIME ?= 20s

.PHONY: build test race vet fmt-check bench bench-sweep sweep fuzz fuzz-smoke cover golden telemetry fleet-bench serve-smoke resilience-smoke scorecard loc all

# Output of `make bench` (see EXPERIMENTS.md). The checked-in BENCH_PR*.json
# files are curated records; pass BENCH_OUT=BENCH_PR<n>.json to write one.
BENCH_OUT ?= bench-report.json

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, if any Go file in the tree (perfbench included)
# is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Interval-kernel benchmark suite → $(BENCH_OUT): cache and stream
# microbenches, the end-to-end interval kernel, fleet rounds, calibration
# and checkpoint encode/restore, with alloc counters. Measure a change
# against a revision with BENCH_FLAGS='-against HEAD~1': both builds' test
# binaries run alternately, pair by pair, and the report keeps each side's
# minimum and median and how many pairs the change won. Add
# '-perfbench resilient:1:10,serve:1:10' to run perfbench the same way,
# each side through its own perfbench/run.sh (each side's runs, median and
# quartiles per metric; '-count 0' skips the microbenches).
bench:
	$(GO) run ./cmd/benchreport -out $(BENCH_OUT) $(BENCH_FLAGS)

# Serial-vs-pooled sweep benchmark on the resilient route (-resilient),
# where every point is its own session sampling for itself and -workers
# sets how many run at once; EXPERIMENTS.md records the measured speedup.
bench-sweep:
	$(GO) test ./cmd/cpmsweep/ -run '^$$' -bench BenchmarkPoolSweep -benchtime 3x

# Example sweep: Mix-1 budget curve on the pooled executor.
sweep: build
	$(GO) run ./cmd/cpmsweep -mix mix1 -budgets 0.5,0.6,0.7,0.8,0.9,0.95

# Fuzz smoke: run each native fuzz target briefly (seed corpora live in
# the packages' testdata/fuzz directories). Override with FUZZTIME=5m etc.
fuzz:
	$(GO) test ./internal/workload -fuzz FuzzParseMix -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -fuzz FuzzStreamAddrs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -fuzz FuzzAccessBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/control -fuzz FuzzRoots -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -fuzz FuzzServeRequestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpm -fuzz FuzzNewPolicyInvariants -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sweepd -fuzz FuzzCheckpointRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -fuzz FuzzChipSnapshotV3Restore -fuzztime $(FUZZTIME)

# Short smoke of five fuzz targets: the three decoders that guard restore
# paths — the snapshot codec, sweepd checkpoints (corrupt checkpoints must
# error, never resume divergently) and chip snapshots v3 — the address
# streams, whose branch-free generator FuzzStreamAddrs checks draw for draw
# against the branchy reference loop, and the cache's batched L1 pass,
# which FuzzAccessBatch holds to an LRU model, to per-address Access and to
# a snapshot-restored copy. Every regression test behind them runs in
# `make race`.
fuzz-smoke:
	$(GO) test ./internal/snapshot -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/sweepd -fuzz FuzzCheckpointRestore -fuzztime 10s
	$(GO) test ./internal/sim -fuzz FuzzChipSnapshotV3Restore -fuzztime 10s
	$(GO) test ./internal/workload -fuzz FuzzStreamAddrs -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzAccessBatch -fuzztime 10s

# Fleet throughput benchmark: chips/sec of the 64- and 1024-chip lockstep
# rounds vs the aggregate-scalar reference, of the 64-chip managed fleet,
# and ns/chip-interval of a whole 512-member managed Farm.Run (informational;
# `make bench` pins the numbers into $(BENCH_OUT)).
fleet-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetFarm' -benchtime 20x .
	$(GO) test -run '^$$' -bench 'BenchmarkFarmRun512$$' -benchtime 3x .

# Self-driven smoke of the daemon: 100 requests through a real listener
# cycling scenarios, seeds and both response modes, with the /metrics
# scrape on stdout (ci.yml archives it as serve-smoke.prom).
serve-smoke: build
	$(GO) run ./cmd/cpmserve -smoke 100 -workers 2

# Coverage for the control-critical packages; ci.yml enforces the floor.
cover:
	$(GO) test -coverprofile=cover.out ./internal/check ./internal/engine ./internal/control
	$(GO) tool cover -func=cover.out | tail -1

# Informational resilience report: a small resilient sweep with kills
# injected every 3 intervals; stderr carries the checkpoint sizes, kill and
# migration counts (ci.yml archives it as resilience-report.txt).
resilience-smoke: build
	$(GO) run ./cmd/cpmsweep -resilient -kill-every 3 -ckpt-every 5 -mix mix1 -budgets 0.7,0.8,0.9 -warm 2 -epochs 4

# Adaptive/predictive policy scorecard (tracking error, settling time,
# BIPS/W vs the fixed-gain baseline on two mixes); CSV series land in
# scorecard-csv/ (ci.yml uploads them as an informational artifact).
scorecard: build
	$(GO) run ./cmd/cpmsim -csv scorecard-csv run scorecard

# Non-test and test Go line counts, perfbench (and its build directory)
# excluded: the net line count each change reports in CHANGES.md.
GO_FILES = find . \( -path ./perfbench -o -path ./.bench_build \) -prune -o -name '*.go'
loc:
	@echo "non-test Go lines: $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"

# Regenerate the golden traces and the quick-report digests of every
# experiment after an intentional behaviour change.
golden:
	$(GO) test ./internal/check -run TestGoldenScenarios -update
	$(GO) test ./internal/experiments -run TestQuickReports -update

# Telemetry of the golden cpm-default scenario in both exporter formats
# (ci.yml uploads these as an informational artifact).
telemetry:
	$(GO) run ./cmd/cpmsim -metrics telemetry.prom scenario cpm-default
	$(GO) run ./cmd/cpmsim -metrics telemetry.json scenario cpm-default
