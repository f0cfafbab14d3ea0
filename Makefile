GO ?= go

.PHONY: build test check import-boundary bench-module experiments-smoke bench fuzz-smoke loopback-smoke crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast pre-commit gate: static analysis plus the
# race-detector suites for the concurrent parts of the tree (the graph's
# epoch snapshots, which readers hold while ingest builds the next, the
# serving layer — including the cross-query result cache, single-flight and
# warm/cold differential suites — the pipeline's cancellation/parallel
# paths, the canonicalization property tests backing the cache keys, the
# distributed runtime's anytime-partial, shared-cache and replica-set
# differential suites — every replica goroutine reads one shared graph.View
# — and the replica router's loopback-HTTP suites). The -cpu leg
# reruns the pipeline, serving, distributed-runtime, router and evaluation
# suites at three GOMAXPROCS values, because the server derives its default
# slot count and per-query width from it, and the runtime runs its ranks as
# goroutines whose counters the evaluation's shape tests assert:
# no test outcome may depend on the host's CPU count. bench-module
# rides along because bench/ is its own module, import-boundary keeps
# the simulated runtime off the serving path, and experiments-smoke runs
# every §5 experiment at CI size so one that crashes fails the gate.
check: bench-module import-boundary experiments-smoke
	$(GO) vet ./...
	$(GO) test -race ./internal/server/ ./internal/core/ ./internal/wal/ ./internal/graph/
	$(GO) test -cpu 1,2,4 ./internal/core/ ./internal/server/ ./internal/dist/ ./internal/router/ ./internal/eval/
	$(GO) test -race -run 'Canonical' ./internal/pattern/
	$(GO) test -race -run 'Partial|SharedCache|ReplicaSet' ./internal/dist/
	$(GO) test -race -run 'Coordinator|DialGroup' ./internal/router/

# import-boundary fails if internal/dist, the simulated distributed runtime,
# or internal/eval, the paper's evaluation built on it, is a dependency of
# the serving binary: amatchd reaches its worker group through
# internal/router only.
import-boundary:
	@deps=$$($(GO) list -deps ./internal/server ./cmd/amatchd) || exit 1; \
	for p in approxmatch/internal/dist approxmatch/internal/eval; do \
		if echo "$$deps" | grep -q "$$p"; then \
			echo "import-boundary: $$p is a dependency of the serving binary" >&2; \
			exit 1; \
		fi; \
	done

# bench-module vets and tests the repo benchmark. bench/ has its own go.mod,
# so the root `go build ./... && go test ./...` never compiles it — and it
# builds server.Config by keyed literal, so a renamed or removed field
# breaks it silently without this step.
bench-module:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# experiments-smoke runs the paper's evaluation (cmd/experiments) at its
# CI size, about a minute on two cores. It checks only that every experiment
# runs to completion; the tables it prints are not compared.
experiments-smoke:
	$(GO) run ./cmd/experiments -quick > /dev/null

# fuzz-smoke runs each native fuzz target for a short burst — enough to
# shake out loader/parser/ingest regressions on hostile input without a
# long fuzz campaign, plus the canonical cache key against the isomorphism
# walk. Targets run one at a time: `go test -fuzz` refuses a pattern
# matching more than one target.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalKey$$' -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime $(FUZZTIME) ./internal/prototype/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime $(FUZZTIME) ./internal/wal/

# bench runs the in-process Go micro-benchmarks of the kernels, the
# serving layer, the graph's load and delta paths, template
# canonicalization, walk planning and amatchd's two restart paths (parse
# the seed, or fingerprint it and start from the WAL's checkpoint), for
# timing a change while you work on it. End-to-end
# numbers — served latency, throughput, ingest and recovery against a real
# amatchd — come from the repo benchmark, bench/run.sh (see bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . ./internal/core/ ./internal/server/ ./internal/graph/ ./internal/pattern/ ./internal/constraint/ ./cmd/internal/graphfile/

# loopback-smoke stands up a real multi-process deployment on loopback —
# four amatchd workers plus an amatchd coordinator (-ranks-addr) — and
# byte-diffs the routed /match (count + vectors) and /explore (k=2) bodies
# against a direct in-process server's.
loopback-smoke:
	./scripts/loopback_smoke.sh

# crash-smoke kill -9s a WAL-backed amatchd mid-ingest and asserts the
# restarted process recovers every acknowledged batch: same epoch, same
# /stats accounting, same /match counts.
crash-smoke:
	./scripts/crash_restart_smoke.sh
