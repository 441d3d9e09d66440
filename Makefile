# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint test ci bench bench-json bench-diff run-experiments cover fmt fmt-check golden-smoke golden daemon-smoke fuzz loc

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# lint runs the project-specific analyzers (cmd/mrmlint): nondeterminism and
# seed purity (interprocedural — impurities reached through helper chains are
# reported at the simulation call site), map-iteration-order leaks,
# mutex-guard contracts, error-matching hygiene (errcmp), shell context
# discipline (ctxflow), and stale-waiver detection (staleallow). A clean tree
# exits 0; waivers are //mrm:allow-<analyzer> directives with reasons, and a
# waiver that stops suppressing anything becomes a finding itself.
lint:
	go run ./cmd/mrmlint ./...

# test vets and lints first, then runs the suite twice: once plain, once under
# the race detector (the parallel sweep engine makes every driver a
# concurrency test), then golden-diffs every experiment.
test:
	go vet ./...
	$(MAKE) lint
	go test ./...
	go test -race ./...
	$(MAKE) golden-smoke
	$(MAKE) daemon-smoke

# ci is what .github/workflows/ci.yml runs: the full gate plus a formatting
# check.
ci: build fmt-check test

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# golden-smoke diffs every pinned mrmsim output — E1–E30 at -seed 42
# -parallel 8 (E30 with the default seeded fault streams) plus a 20-node,
# 1-hour fleet day on HBM-only and HBM+MRM nodes — against
# testdata/golden/ byte for byte. Output must be bit-identical across runs
# and worker counts. Regenerate the files with `make golden` after an
# intentional change.
golden-smoke:
	go test -count=1 -run '^TestGolden$$' ./cmd/mrmsim

golden:
	go test -count=1 -run '^TestGolden$$' ./cmd/mrmsim -update

# fuzz runs each differential fuzzer for 30 s. FuzzZoned: random op
# sequences (with device write faults armed) must keep the zoned controller's
# free-byte counter, deadline index and least-worn index equal to full
# scans. FuzzMRMReads: puts, deletes, Ticks, compactions and fault arming on
# twin MRMs, whose Get/GetRefs reads (per-object vectored reads, or
# epoch-stamped run summaries) must match an extent-by-extent zone Read loop
# in results, stats, energy and device counters, with CheckInvariants passing
# on both after every op, failed puts and refreshes included. FuzzAddRepeated: memdev's O(1)-per-run repeated float add must
# equal the plain add loop bit for bit. The checked-in seed corpora also run
# as part of `go test`.
fuzz:
	go test -run '^$$' -fuzz FuzzZoned -fuzztime 30s ./internal/controller
	go test -run '^$$' -fuzz FuzzMRMReads -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzAddRepeated -fuzztime 30s ./internal/memdev

# daemon-smoke drills the mrmd serving daemon end-to-end: start on an
# ephemeral port, probe /healthz and /readyz, submit a request, arm /chaos,
# reconfigure tiering live, then SIGTERM and require a clean drain (exit 0
# within the drain deadline).
daemon-smoke:
	sh scripts/daemon_smoke.sh

bench:
	go test -bench=. -benchmem ./...

# loc prints the program's size: non-test Go lines outside perfbench/ (a
# module of its own) and testdata/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' \
		! -path '*/testdata/*' ! -path './.git/*' ! -path './.bench_build/*' \
		-exec cat {} + | wc -l

# bench-json captures the tracked benchmarks in one `go test` run, as
# test2json event lines in BENCH_all.json for regression tracking: the
# sweep-engine scaling benchmarks (workers=1 vs workers=NumCPU), the device
# hot-path benchmarks (superblock-pruned BER scan, coalesced reads, run-charged
# reads, histogram bucket cache), the MRM read path one layer at a time (core GetRefs, then
# tier GetPlanned over the same objects), the write path one layer at a time
# (controller AppendVec, core PutBatch, tier Manager PutBatch), the cluster-level serving
# benchmarks (coalesced decode loop, batched write path, fleet run), and the
# fleet-scale benchmarks (1000-node fleet-day from a materialized slice and
# streamed, serial and pipelined, plus the generation/placement microbenches
# that decompose the streamed day).
BENCH_JSON_RE = ^(BenchmarkSweep|BenchmarkDeviceRead|BenchmarkDeviceWrite|BenchmarkHistogramObserve|BenchmarkMRMGetRefs|BenchmarkGetPlanned|BenchmarkZonedAppendVec|BenchmarkMRMPutBatch|BenchmarkManagerPutBatch|BenchmarkDecodeCoalesce|BenchmarkSimWritePath|BenchmarkFleetRun|BenchmarkFleetDay|BenchmarkFleetPlacement|BenchmarkGeneratorStream)

bench-json:
	go test -json -run '^$$' -bench '$(BENCH_JSON_RE)' -benchmem \
		. ./internal/memdev ./internal/metrics ./internal/controller ./internal/core ./internal/tier ./internal/cluster > BENCH_all.json
	@grep -c '"Action"' BENCH_all.json >/dev/null && echo "wrote BENCH_all.json"

# bench-diff compares the device and cluster hot-path benchmarks — including
# the streamed fleet-day path and its generation/placement microbenches —
# against a saved baseline with benchstat when both are available. Save a
# baseline with:
#   go test -run '^$$' -bench '^(BenchmarkDevice|BenchmarkDecodeCoalesce|BenchmarkSimWritePath|BenchmarkFleetRun$$|BenchmarkFleetDayStream|BenchmarkGeneratorStream|BenchmarkFleetPlacement)' -count 5 ./internal/memdev ./internal/cluster > bench_baseline.txt
# The target degrades gracefully: it explains what is missing rather than
# failing when benchstat or the baseline is absent.
bench-diff:
	@if [ ! -f bench_baseline.txt ]; then \
		echo "bench-diff: no bench_baseline.txt; save one with the command in the Makefile comment"; \
		exit 0; \
	fi; \
	go test -run '^$$' -bench '^(BenchmarkDevice|BenchmarkDecodeCoalesce|BenchmarkSimWritePath|BenchmarkFleetRun$$|BenchmarkFleetDayStream|BenchmarkGeneratorStream|BenchmarkFleetPlacement)' -count 5 \
		./internal/memdev ./internal/cluster > bench_new.txt; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench_baseline.txt bench_new.txt; \
	else \
		echo "bench-diff: benchstat not installed; raw results are in bench_baseline.txt and bench_new.txt"; \
	fi

run-experiments:
	go run ./cmd/mrmsim

cover:
	go test -coverprofile=cover.out ./... && go tool cover -func=cover.out | tail -1

fmt:
	gofmt -w .
