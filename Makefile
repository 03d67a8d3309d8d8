GO ?= go

.PHONY: build test perfbench-test race race-server fmt-check vet kmvet lint lint-report invariants fuzz-smoke bench-smoke obs-smoke benchdiff-smoke shard-smoke build-smoke cluster-smoke trace-smoke relative-smoke check bench bench-json bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench/ is its own module (`replace bwtmatch => ../`), so the root
# `go test ./...` never builds it; vet and test it here so a library
# change that breaks what the benchmark calls fails the gate.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The server package is the repo's first concurrent-mutation code path
# (registry writes under reads, drain vs in-flight searches); always run
# it under the race detector, and separately so a failure is attributable.
race-server:
	$(GO) test -race ./server/...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt gate: lists every Go file gofmt would rewrite and fails when
# there is any.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$files"; exit 1; fi

# kmvet is the repo-specific analyzer (cmd/kmvet, DESIGN.md §6): the
# per-function rules (load-path error wrapping, lock copies, no library
# panics, no stdlib log) plus the call-graph-aware concurrency rules
# (goroutinelifecycle, lockheld, reachpanic, boundedalloc, closeerr). Suppress individual findings
# with `//kmvet:ignore <rule> <reason>` on the offending line (or the
# line above); stale suppressions are themselves findings.
kmvet:
	$(GO) run ./cmd/kmvet

lint: fmt-check vet kmvet

# Machine-readable lint artifact for CI (schema pinned by
# internal/analyze/json_test.go). Written even when findings exist so
# the annotation step can consume it; the exit status still gates.
lint-report:
	$(GO) run ./cmd/kmvet -json > lint-report.json; \
	status=$$?; cat lint-report.json; exit $$status

# The deep runtime invariant layer: CheckInvariants implementations are
# compiled in under the kminvariants tag (and are no-ops otherwise), so
# this runs every test with full structural verification, under -race.
invariants:
	$(GO) test -race -tags kminvariants ./...

# Short mutation runs of each fuzz target with invariants enabled; long
# campaigns use `go test -fuzz=<target> -tags kminvariants .` directly.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSearchMethods -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzSaveLoad -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadRoundTrip -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadShardedRoundTrip -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadRelativeRoundTrip -fuzztime=10s -tags kminvariants .

# Every Go benchmark of the module, once each: a benchmark that panics
# or fails breaks the gate instead of rotting until someone times it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Observability smoke test: boots kmserved, scrapes /metrics (including
# the km_slo_* series) and /debug/flightrecorder, and validates the
# Prometheus text exposition with the in-repo validator
# (internal/obs.ValidateExposition) — no external dependencies.
obs-smoke:
	$(GO) test -run='^TestObsSmoke$$' -count=1 ./server/...

# Regression-gate smoke test: kmbenchdiff must pass a clean diff and
# reject both fabricated regressions — 20% ns/read and 24% peak RSS
# (fixtures in cmd/kmbenchdiff/testdata). A rejection counts only with
# exit status 1 AND a FAIL: line: bad input (a missing fixture, say)
# exits 2 and fails the smoke. The tool is built rather than `go run`,
# which flattens every non-zero exit status to 1.
benchdiff-smoke:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/kmbenchdiff" ./cmd/kmbenchdiff && \
	td=cmd/kmbenchdiff/testdata && \
	"$$bin/kmbenchdiff" $$td/old.json $$td/new_ok.json && \
	for f in new_regressed new_rss_regressed; do \
		out=$$("$$bin/kmbenchdiff" $$td/old.json $$td/$$f.json 2>&1); status=$$?; \
		if [ $$status -ne 1 ] || ! printf '%s\n' "$$out" | grep -q '^FAIL:'; then \
			printf '%s\n' "$$out"; \
			echo "benchdiff-smoke: FAIL ($$f.json exited $$status; want 1 with a FAIL: line)"; exit 1; \
		fi; \
		echo "benchdiff-smoke: $$f.json correctly rejected (exit 1, FAIL: line)"; \
	done

# Sharded-pipeline smoke test: kmgen builds a multi-shard index file,
# kmsearch loads it transparently and must agree with a monolithic
# build, and kmserved serves it with per-shard /metrics series.
shard-smoke:
	$(GO) test -run='^TestShardSmoke$$' -count=1 .

# Multi-tenant relative-index smoke test: kmgen builds a base index and
# three delta-compressed tenant containers, kmsearch answers from a
# tenant byte-identically to a standalone build, and kmserved serves all
# three tenants off one shared resident base with the delta accounting
# in /v1/indexes and the km_relative_* /metrics series (DESIGN.md §13).
relative-smoke:
	$(GO) test -run='^TestRelativeSmoke$$' -count=1 .

# Build-pipeline smoke test: kmgen stream-builds a sharded container in
# bounded memory (byte-identical to the in-memory build), appends to it
# in place reusing untouched shard frames, and a running kmserved picks
# up the grown container on SIGHUP (real binaries, DESIGN.md §12).
build-smoke:
	$(GO) test -run='^TestBuildSmoke$$' -count=1 .

# Cluster smoke test: kmgen builds a sharded index, two kmserved workers
# serve it behind a kmserved -coordinator, kmload drives Zipf traffic
# through the fleet, and /metrics is scraped and validated on all three
# processes (real binaries, loopback HTTP).
cluster-smoke:
	$(GO) test -run='^TestClusterSmoke$$' -count=1 ./server/cluster/...

# Distributed-tracing smoke test: the same real fleet with the
# coordinator at -trace-sample 1, driven by kmload -trace; the written
# Chrome timeline must carry coordinator spans plus worker span
# fragments under one request ID, and /debug/trace plus the
# /debug/flightrecorder endpoints must serve valid documents.
trace-smoke:
	$(GO) test -run='^TestTraceSmoke$$' -count=1 ./server/cluster/...

# The one-stop pre-commit gate.
check: lint perfbench-test race-server race invariants fuzz-smoke bench-smoke obs-smoke benchdiff-smoke shard-smoke build-smoke cluster-smoke trace-smoke relative-smoke

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Machine-readable search benchmark (ns/read + work counters + peak RSS);
# commit the output as a BENCH_*.json trajectory file.
bench-json:
	$(GO) run ./cmd/kmbench -json -scale 64 -reads 20 -rounds 5 -out BENCH_latest.json
	@cat BENCH_latest.json

# Compare two benchmark reports and fail on >10% ns/read regressions:
#   make bench-compare OLD=BENCH_pr4_before.json NEW=BENCH_pr4_after.json
OLD ?= BENCH_pr4_before.json
NEW ?= BENCH_pr4_after.json
bench-compare:
	$(GO) run ./cmd/kmbenchdiff $(OLD) $(NEW)
