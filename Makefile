GO ?= go

.PHONY: build test race lint bench bench-shuffle bench-shuffle-component bench-sample bench-serve bench-ooc bench-shard bench-sample-equiv bench-grid bench-baseline perf-gate perf-gate-smoke

build:
	$(GO) build ./...

# Formatting, vet, and documentation coverage (the CI lint leg).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/doccheck -strict . -strict ./internal/obs -strict ./internal/serve -strict ./internal/ooc -strict ./internal/perfgate -strict ./internal/shard -strict ./internal/dyn -strict ./internal/core -strict ./internal/walk ./internal/... ./cmd/... ./examples/...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on . ./internal/pool/ ./internal/walk/ ./internal/core/ ./internal/serve/ ./internal/ooc/ ./internal/shard/

# Go-native component benchmarks (small, cache-resident scales).
bench:
	$(GO) test -run NONE -bench . -benchtime 3x .

# The §4.3 shuffle-stage measurement at DRAM scale: the engine's shuffle
# per worker count plus the end-to-end stage split. Writes a raw
# BENCH_shuffle.json under bench/out/.
bench-shuffle:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmbench -exp shuffle -outdir bench/out

bench-shuffle-component:
	$(GO) test -run NONE -bench BenchmarkComponentShuffle -benchtime 3x .

# The §4.2 sample-stage measurement at DRAM scale: the per-partition
# kernels across the partition classes {PS, DS-regular, DS-CSR,
# weighted, node2vec}. Writes a raw BENCH_sample.json under bench/out/.
bench-sample:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmbench -exp sample -outdir bench/out

# The walk-query service's open-loop load sweep: batch-size-1 vs
# coalescing at 0.5/1/2/3x the calibrated batch-size-1 capacity, seeded
# three-algorithm request mix. Writes a raw BENCH_serve.json under
# bench/out/ (docs/BENCHMARKING.md).
bench-serve:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmbench -exp serve -outdir bench/out

# Out-of-core streaming: double-buffered block reads across sample
# workers and the resident-tier budget on a disk-resident graph, beside
# the in-memory ns/step, mean/std over 5 repeats. Writes a raw
# BENCH_ooc.json under bench/out/.
bench-ooc:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmbench -exp ooc -repeats 5 -outdir bench/out

# Sharded topology sweep: shard count x transport (in-process channel
# exchange at 1/2/4 shards, a two-shard TCP loopback pair) vs the single
# engine on bitwise-identical cohorts, mean/std over 5 repeats. Writes a
# raw BENCH_shard.json under bench/out/ (docs/BENCHMARKING.md).
bench-shard:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmbench -exp shard -repeats 5 -outdir bench/out

# Equivalence + determinism gate for the sample kernels.
bench-sample-equiv:
	$(GO) test -run 'TestSample|TestStopProb|TestDSRegular|TestMCKPPlan' -count=1 ./internal/core/

# The full declarative grid (bench/experiments.json): every experiment x
# its parameter grid x repeats, aggregated to mean/std/min/max. Writes
# the versioned BENCH_*.json into the repo root plus CSV/markdown
# summaries under bench/out/ (docs/BENCHMARKING.md).
bench-grid:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmgrid -manifest bench/experiments.json -out . \
		-csv bench/out/bench_summary.csv -md bench/out/bench_summary.md

# Intentional baseline refresh: rerun the full grid and commit the
# results as the new bench/baseline/ trajectory. Only do this when a
# change is *supposed* to move the numbers; see docs/BENCHMARKING.md.
bench-baseline:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmgrid -manifest bench/experiments.json -out . \
		-csv bench/out/bench_summary.csv -md bench/out/bench_summary.md \
		-update-baseline

# The regression gate: rerun the full grid and compare every cell
# against the committed bench/baseline/ trajectory. Exits non-zero when
# any gated metric regresses past the manifest's noise band.
perf-gate:
	@mkdir -p bench/out
	$(GO) run ./cmd/fmgrid -manifest bench/experiments.json -out bench/out \
		-baseline bench/baseline -gate

# The CI smoke leg: a tiny reduced grid (bench/smoke.json) whose gate
# ignores absolute times and throughputs, so it survives host-to-host
# variance. Fast enough to run on every push.
perf-gate-smoke:
	@mkdir -p bench/out/smoke
	$(GO) run ./cmd/fmgrid -manifest bench/smoke.json -out bench/out/smoke \
		-baseline bench/baseline/smoke -gate
