# Tier-1 verification gate: `make check` must pass before merging.
GO ?= go

.PHONY: build test vet race lint lockgraph check loc bench bench-go bench-check bench-pipeline bench-boot fuzz scenarios

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector — the concurrent engine
# (stream.ParallelMultiEngine, inline and worker-sharded) and the SSE broker
# are stress-tested from many goroutines, so this is where lifecycle and
# counter races surface.
race:
	$(GO) test -race ./...

# lint runs the firehose-lint analyzer suite (guardcheck, nowcheck,
# snapshotcheck, errdrop, lockorder) over the whole module. See DESIGN.md
# ("Static analysis") for the invariants each analyzer enforces, the runtime
# tests that pin the invariants no analyzer checks, and README.md for the
# guard-comment grammar. The
# multichecker binary is cached under bin/ and rebuilt only when its sources
# change (testdata modules are not inputs: they are fixtures, not sources).
LINT_SRC := $(shell find internal/lint cmd/firehose-lint -name '*.go' -not -path '*/testdata/*') go.mod

bin/firehose-lint: $(LINT_SRC)
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/firehose-lint

lint: bin/firehose-lint
	bin/firehose-lint ./...

# lockgraph regenerates the committed acquired-before lock graph artifact
# (docs/lockgraph.dot) that TestLockGraphGolden pins and CI uploads.
lockgraph: bin/firehose-lint
	bin/firehose-lint -lockgraph ./... > docs/lockgraph.dot

# check is the tier-1 gate: vet + firehose-lint + full race-detector test run.
check: vet lint race

# loc prints the number of non-test Go lines tracked by git (testdata modules
# excluded) — the figure CHANGES.md quotes before and after a subtraction.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v /testdata/ | xargs cat | wc -l

# bench runs the hot-path harness (cmd/benchhot) and writes
# BENCH_hotpath.json: the fused fingerprint kernel against its spec
# functions, the SoA-vs-reference UniBin scan, the index-vs-scan
# coverage pairs (λc=6 and the strict wide-window λc=3 regime), the
# multi-user steady-state alloc counts, and parallel one-by-one vs batch
# throughput at 1/2/NumCPU workers. BENCHTIME accepts a duration or an
# iteration count (e.g. `make bench BENCHTIME=1x` for a smoke run).
BENCHTIME ?= 1s

bench:
	$(GO) run ./cmd/benchhot -benchtime $(BENCHTIME) -out BENCH_hotpath.json

# bench-check regenerates the report to a scratch path and fails if any
# scan-bound benchmark regressed more than 15% against the committed
# BENCH_hotpath.json. Comparisons are normalized to the in-report reference
# measurement, so the check is meaningful on machines other than the one
# that produced the baseline (see cmd/benchcheck).
BENCH_CANDIDATE ?= BENCH_candidate.json

bench-check:
	$(GO) run ./cmd/benchhot -benchtime $(BENCHTIME) -out $(BENCH_CANDIDATE)
	$(GO) run ./cmd/benchcheck -baseline BENCH_hotpath.json -candidate $(BENCH_CANDIDATE)

# bench-pipeline runs the end-to-end benchmark (cmd/loadgen, registered in
# BENCHMARK.json): the real daemon in its four workload shapes, every output
# checked against the in-process reference and the seed-1 goldens, six
# end-to-end metrics per workload. Add `-trace 1` by hand for the per-layer
# budget; BENCH_pipeline.json holds the committed before/after rows.
bench-pipeline:
	$(GO) run ./cmd/loadgen -seed 1

# bench-boot times the boot-chain steps a daemon runs before it listens —
# the followees-file read, the in-place row sort and author-similarity join
# (BuildGraphInPlace, and the join alone), the S_UniBin shared-component
# table and the 2-worker engine build — and a shard worker's whole chain
# (followees file → engine inputs → shard.Plan → restricted S_UniBin build),
# on the pipeline benchmark's 5,000-author graph, at one and two CPUs.
bench-boot:
	$(GO) test -run '^$$' -bench 'PairsAbove|ReadFollowees|BuildGraphInPlace|NewSharedMultiUser|NewParallelMultiEngine|ShardWorkerBoot' -benchmem -cpu 1,2 -count 5 ./internal/authorsim ./internal/corpusio ./internal/core ./internal/stream ./cmd/firehosed

# bench-go runs every in-package go test benchmark.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# fuzz runs every fuzz target for FUZZTIME each (Go runs one -fuzz target per
# invocation, so each gets its own). CI uses this as a smoke and fails when a
# `func Fuzz` in the tree is missing from this list; locally raise
# FUZZTIME for a real session, e.g. `make fuzz FUZZTIME=10m`.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzNormalize -fuzztime=$(FUZZTIME) ./internal/textnorm
	$(GO) test -run='^$$' -fuzz=FuzzTokensWithOptions -fuzztime=$(FUZZTIME) ./internal/textnorm
	$(GO) test -run='^$$' -fuzz=FuzzDistance -fuzztime=$(FUZZTIME) ./internal/simhash
	$(GO) test -run='^$$' -fuzz=FuzzFingerprintNormalizationStable -fuzztime=$(FUZZTIME) ./internal/simhash
	$(GO) test -run='^$$' -fuzz=FuzzFingerprintFused -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSharedRestore -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzTimelines -fuzztime=$(FUZZTIME) ./internal/stream
	$(GO) test -run='^$$' -fuzz=FuzzDecodeIngest -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -run='^$$' -fuzz=FuzzStreamFrame -fuzztime=$(FUZZTIME) ./internal/ingeststream
	$(GO) test -run='^$$' -fuzz=FuzzAssignmentTable -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzParseWorkload -fuzztime=$(FUZZTIME) ./internal/twittergen
	$(GO) test -run='^$$' -fuzz=FuzzReadPosts -fuzztime=$(FUZZTIME) ./internal/corpusio
	$(GO) test -run='^$$' -fuzz=FuzzReadGraph -fuzztime=$(FUZZTIME) ./internal/corpusio
	$(GO) test -run='^$$' -fuzz=FuzzReadFollowees -fuzztime=$(FUZZTIME) ./internal/corpusio
	$(GO) test -run='^$$' -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) .

# scenarios runs the adversarial workload suite (flash crowd, celebrity
# cascade, botnet, diurnal whiplash, graph churn): each scenario streams its
# hostile shape through the baseline S_UniBin engine and the adaptive per-user
# threshold controller, printing the before/after delivery-rate and latency
# tables. SMOKE=1 first re-verifies the committed golden reports at the
# reduced scale, then prints the smoke-scale tables — the CI job runs that.
scenarios:
ifdef SMOKE
	$(GO) test -run 'TestScenario' ./internal/experiments
	$(GO) run ./cmd/experiments -scenario all -smoke
else
	$(GO) run ./cmd/experiments -scenario all
endif
