# Developer / CI entry points. `make check` is the full gate:
# formatting, vet, the simlint static-analysis suite, build, the
# unit/integration suite, the hot packages again with poolcheck message
# poisoning, the whole suite again under the race detector, the METRICS.md
# schema freshness, a one-rep smoke of the benchmark harness
# (`make bench-json` is the full measurement), an end-to-end smoke of
# the simulation service (`make serve-smoke`), a sharded-execution
# smoke (`make shard-smoke`), a jittered barrier stress under the race
# detector (`make shard-stress`), a checkpoint/restore smoke
# (`make snapshot-smoke`), a short native-fuzzing run of snapshot restore
# (`make fuzz-smoke`), and the benchmark's byte-identity gate plus its own
# tests (`make perfbench-check`).

GO ?= go

.PHONY: all build test vet fmt test-race test-poolcheck lint lint-fix-list metrics-schema metrics-schema-check bench-json bench-smoke serve-smoke shard-smoke shard-stress snapshot-smoke fuzz-smoke perfbench-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Pool-discipline gate: rebuilds the hot packages with poolcheck poisoning
# of released messages and runs their suites, so any use-after-release or
# double-release on the pooled paths panics instead of corrupting state.
test-poolcheck:
	$(GO) test -tags poolcheck ./internal/network/ ./internal/coherence/ ./internal/memctrl/ ./internal/pipeline/ ./internal/machine/

# The runner fans simulations out across goroutines; the whole suite runs
# under the race detector so nothing escapes the gate. The simulator is
# ~10x slower under race and CI hosts may be single-core, so the default
# 10m per-package timeout is far too tight.
test-race:
	$(GO) test -race -timeout 60m ./...

# Static-analysis gate: determinism, map-order safety, metric-name grammar,
# API hygiene, hot-path allocations and shard ownership (see DESIGN.md
# "Determinism rules" and "Shard-ownership rules"). Zero findings or the
# build fails.
lint:
	$(GO) run ./cmd/simlint

# Machine-readable findings for editors and scripted triage.
lint-fix-list:
	$(GO) run ./cmd/simlint -json

# gofmt as a failing check (CI-style: lists offending files and exits 1).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Benchmark record: the full root benchmark suite (3 reps, min kept, alloc
# rates included, the BenchmarkWarmSweep_* full-vs-forked sweep pair, the
# per-config shard_serial_fraction section) against the PR 9 baseline in
# BENCH_9.json, written to BENCH_10.json.
bench-json:
	$(GO) run ./cmd/benchjson -count 3 -baseline BENCH_9.json -out BENCH_10.json

# Quick end-to-end sanity of the bench harness for `make check`: two small
# benchmarks, one rep per kernel, result discarded.
bench-smoke:
	$(GO) run ./cmd/benchjson -count 1 -bench 'Fig2|AblationBitOps' -out /tmp/bench_smoke.json

# End-to-end smoke of sharded execution (DESIGN.md §13): one 16-node
# config split across 4 OS threads must run to completion through the
# real CLI. Byte-identity with -shards 1 is pinned by the test suite
# (TestShardDifferential); this gate proves the flag works end to end.
shard-smoke:
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 16 -way 2 -scale 0.25 -shards 4 >/dev/null

# Jittered barrier stress under the race detector: the adaptive-quantum
# tree-barrier handshake (DESIGN.md §13) across shard counts and
# scheduling-jitter seeds, every run required byte-identical. This is the
# gate for the lock-free release/park fast paths; it reruns the same test
# the plain suite runs, but -race turns any missed happens-before edge in
# the barrier into a hard failure instead of a silent coincidence.
shard-stress:
	$(GO) test -race -timeout 30m -count 1 -run TestShardQuantumBarrierStress ./internal/machine/

# End-to-end smoke of checkpoint/restore (DESIGN.md §14): capture a
# checkpoint mid-run through the real CLI, restore it at a different shard
# count, and require the resumed run's metrics JSON to be byte-identical
# to the uninterrupted run's.
snapshot-smoke:
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 4 -scale 0.25 -snapshot-at 1000 -snapshot-out /tmp/smtpsim_ck.bin -metrics /tmp/smtpsim_full.json >/dev/null
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 4 -scale 0.25 -shards 2 -restore /tmp/smtpsim_ck.bin -metrics /tmp/smtpsim_resumed.json >/dev/null
	cmp /tmp/smtpsim_full.json /tmp/smtpsim_resumed.json

# Short native-fuzzing run of snapshot restore: mutated snapshots of a
# committed seed (internal/machine/testdata/fuzz/) must make
# Machine.Restore return, with or without an error, and never panic.
# `smtpsim -restore` and `simserver -cache-dir` decode such files from disk.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMachineRestore -fuzztime 10s ./internal/machine

# End-to-end smoke of the simulation service: boot simserver on a loopback
# port, submit the same spec twice, require the second response to be a
# byte-identical cache hit (the content-address contract of DESIGN.md §12).
serve-smoke:
	$(GO) run ./cmd/simserver -selftest

# The benchmark's correctness gate: one pass of every perfbench workload on
# the pinned seed, each simulated output required to match its stored
# digest in perfbench/digests.json, then the benchmark module's own tests
# (perfbench is a separate Go module, outside `go test ./...`).
perfbench-check:
	bash perfbench/run.sh --check --workload all --seed 42
	cd perfbench && $(GO) test ./...

# Regenerate the metric-name table of METRICS.md from the registry.
metrics-schema:
	$(GO) run ./cmd/metricsdoc

# Fail if METRICS.md has drifted from the registered metric names.
metrics-schema-check:
	$(GO) run ./cmd/metricsdoc -check

check: fmt vet lint build test test-poolcheck test-race metrics-schema-check bench-smoke serve-smoke shard-smoke shard-stress snapshot-smoke fuzz-smoke perfbench-check
