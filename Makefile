# GraphCache build/test entry points. `make ci` is what every PR must
# pass: vet + staticcheck + gofmt (`fmt-check`) + the gclint concurrency
# and hot-path contract analyzers (`lint`, see cmd/gclint), plus the
# full test suite under the race detector (the concurrency stress and
# equivalence tests in internal/core and internal/server only earn
# their keep with -race armed), the coverage floor (`cover`, the same
# gate CI runs) and the bench smoke gate.

GO ?= go

# Coverage floor enforced by `make cover`. The suite sits at ~83%; the
# floor trails it so refactors have headroom, but a PR that tanks
# coverage fails CI. Raise it when the real number durably rises.
COVER_BASELINE ?= 80.0

.PHONY: build test race vet staticcheck fmt-check lint lint-waivers cover bench bench-smoke bench-json bench-memory bench-module fuzz-smoke throughput scaling profiles churn ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (the sandbox image does not bundle it)
# but mandatory in CI, which installs it first and sets
# STATICCHECK_REQUIRED=1 so a missing binary is a hard failure there
# instead of a skip. A present binary's findings always fail the build.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(STATICCHECK_REQUIRED)" = "1" ]; then \
		echo "staticcheck required but not installed (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fmt-check fails when any tracked Go file is not gofmt-clean, listing
# the offenders. gclint's annotation grammar depends on gofmt layout
# (directives must sit on their own comment line), so this gate runs
# before lint in `make ci`.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the repo's own static analyzers (lockorder, cowpublish,
# leaflock, noalloc, snapshotonce, determinism, ctxflow) over every
# package; any finding fails the build. -timings prints the shared
# load/typecheck cost plus per-analyzer wall time to stderr, so a slow
# analyzer is visible the moment it lands. The annotation grammar is
# documented in internal/lint and internal/core/doc.go.
lint:
	$(GO) run ./cmd/gclint -timings ./...

# lint-waivers prints the inventory of every //gclint:ignore in the tree
# with its mandatory reason — the audit surface CI uploads as an artifact.
lint-waivers:
	$(GO) run ./cmd/gclint -waivers ./...

# Full-suite coverage with a floor: fails when total statement coverage
# drops below COVER_BASELINE percent.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { \
		if (t+0 < b+0) { printf "coverage %.1f%% is below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# Parallel-throughput comparison: the per-shard-window engine vs the
# serialized baseline (a one-shard cache behind one harness mutex held
# around each query), swept to GOMAXPROCS workers.
throughput:
	$(GO) run ./cmd/workloadrun -throughput

# Scaling tier: 10k graphs, 10k zipf-skewed mixed queries, full
# GOMAXPROCS worker sweep (~2 min of wall-clock per core by design).
scaling:
	$(GO) run ./cmd/workloadrun -throughput -scale large

# pprof artifacts: CPU + heap profiles of the scaling-tier run, uploaded
# by CI so hot-path regressions are diagnosable from the artifacts alone.
# Inspect with `go tool pprof profiles/scaling_cpu.pprof`.
PROFILE_DIR ?= profiles
profiles:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/gcbench -exp scaling \
		-cpuprofile $(PROFILE_DIR)/scaling_cpu.pprof -memprofile $(PROFILE_DIR)/scaling_mem.pprof

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/bench/

# Tiny throughput run that additionally compares indexed vs unindexed hit
# detection and fails unless the feature index strictly reduced work
# (fewer dominance merges, no extra cache-side iso tests, pruning active).
bench-smoke:
	$(GO) run ./cmd/workloadrun -throughput -throughput-dataset 100 -throughput-queries 200 -workers 1,2 -assert-index

# Live-mutation comparison: exact cache maintenance vs dropping the cache
# at every dataset mutation (incremental index inserts vs full rebuilds).
churn:
	$(GO) run ./cmd/workloadrun -churn -assert-churn

# Short native-fuzzing smoke passes: the GCS3 snapshot reader, the
# adaptive-bitset differential target (random op sequences vs a naive
# []bool reference, across every container mix), the gclint
# annotation parser, the subgraph-isomorphism differential target
# (VF2 vs Ullmann on graphs straddling the 64-vertex mask boundary) and
# the GGSX differential target (the flat index vs a naive per-graph
# path-count reference, through builds and WithGraph inserts). The
# committed corpora under each package's
# testdata/fuzz replay in every plain `go test`; this target additionally
# mutates for a few seconds per target so CI keeps probing fresh inputs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^FuzzReadSnapshot$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzBitsetOps$$' -fuzz '^FuzzBitsetOps$$' -fuzztime $(FUZZTIME) ./internal/bitset/
	$(GO) test -run '^FuzzParseAnnotation$$' -fuzz '^FuzzParseAnnotation$$' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^FuzzSubIso$$' -fuzz '^FuzzSubIso$$' -fuzztime $(FUZZTIME) ./internal/iso/
	$(GO) test -run '^FuzzGGSX$$' -fuzz '^FuzzGGSX$$' -fuzztime $(FUZZTIME) ./internal/ftv/

# Perf-trajectory artifact: throughput (full GOMAXPROCS worker sweep),
# large-tier scaling and churn results as JSON, stamped with the runtime
# environment (GOMAXPROCS, CPU count, Go version) and uploaded by CI per
# PR (BENCH_pr4.json and BENCH_pr5.json seed the file set; the scaling
# and env sections start with BENCH_pr6.json). No -workers flag: the
# sweep derives from GOMAXPROCS so the artifact reflects the hardware.
# The default output is a gitignored scratch path so `make ci` never
# clobbers the committed BENCH_pr*.json history; CI overrides BENCH_JSON
# to name its uploaded artifact, and cutting a new committed snapshot is
# an explicit `make bench-json BENCH_JSON=BENCH_prN.json`.
BENCH_JSON ?= bench_scratch.json
bench-json:
	$(GO) run ./cmd/workloadrun -bench-json $(BENCH_JSON) -assert-churn \
		-throughput-dataset 120 -throughput-queries 300 \
		-churn-dataset 120 -churn-queries 300 -churn-mutations 10

# Answer-set memory ledger: bytes/entry under the adaptive containers +
# interning vs the dense-equivalent baseline, on the default AND large
# tiers (the large row is the ISSUE-8 ≥40%-reduction acceptance surface).
# The same numbers land in the bench-json artifact's memory section.
bench-memory:
	$(GO) run ./cmd/gcbench -exp memory

# The repository benchmark (perfbench/) is a nested Go module, so
# `go build ./...` and `go vet ./...` at the root never compile it. Build
# and vet it on its own so a kernel API change cannot silently break the
# benchmark. -o /dev/null keeps the build from leaving a binary behind.
bench-module:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

ci: vet bench-module staticcheck fmt-check lint race cover fuzz-smoke bench-smoke bench-json
