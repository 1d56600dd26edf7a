GO ?= go

.PHONY: all build vet test race engine-flake bench fuzz-smoke loadserve loadserve-net crash cluster-check metrics-check examples

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The engine's own packages, non-short, five times over on two CPUs: the
# configuration in which the removal status window (DESIGN.md, "The t
# status") made tier-1 red — rare interleavings need both the stress tests
# that -short skips and a scheduler that actually preempts between two stores.
# The second line is the same on the product path: the multi-worker engines
# kcore builds, checked against BZ and by the repair count in their report.
# The last two run the lock-free OM readers and the graph's reserved
# concurrent AddEdge under the race detector.
engine-flake:
	GOMAXPROCS=2 $(GO) test -count=5 ./internal/pcore/ ./internal/core/
	GOMAXPROCS=2 $(GO) test -count=5 -run 'TestEngineConformance|TestRepairTargetsReported' ./kcore
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./internal/om/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./graph/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Crash-recovery drills: the in-repo kill -9 harness (cmd/kcored's crash
# test spawns real server processes, so it skips itself under -short),
# the CLI drill (loadserve -recover-check), and the replication drill
# (loadserve -replica-check: durable leader + follower, kill -9 the
# leader mid-run, promote-by-restart, verify the follower re-syncs to
# the acked-mirror oracle) back to back.
crash:
	$(GO) test -run 'TestCrashRecovery|TestGracefulRestart|TestLoadImport' -count=1 -v ./cmd/kcored
	$(GO) build -o /tmp/kcored ./cmd/kcored
	$(GO) run ./cmd/loadserve -recover-check -kcored /tmp/kcored -d 3s
	$(GO) run ./cmd/loadserve -replica-check -kcored /tmp/kcored -d 3s

# Sharded-cluster drill: loadserve spawns real kcored shard processes
# running each engine in turn, churns mixed cross-shard traffic through
# the routing client, and verifies every routed read (full sweep +
# scatter-gather aggregates) against the cluster oracle.
cluster-check:
	$(GO) build -o /tmp/kcored ./cmd/kcored
	$(GO) run ./cmd/loadserve -cluster-check -kcored /tmp/kcored -shards 3 -alg parallel -d 2s
	$(GO) run ./cmd/loadserve -cluster-check -kcored /tmp/kcored -shards 3 -alg seq -d 2s
	$(GO) run ./cmd/loadserve -cluster-check -kcored /tmp/kcored -shards 3 -alg traversal -d 2s
	$(GO) run ./cmd/loadserve -cluster-check -kcored /tmp/kcored -shards 3 -alg jes -d 2s

# Observability drill: loadserve spawns a durable kcored with
# -metrics-addr and -slowlog-ms 0, churns mixed traffic, scrapes
# /metrics twice, asserts every expected metric family is present and
# parseable, that the counters moved, that each histogram's +Inf bucket
# equals its _count, and exercises CORE.SLOWLOG GET/LEN/RESET plus the
# pprof index.
metrics-check:
	$(GO) build -o /tmp/kcored ./cmd/kcored
	$(GO) run ./cmd/loadserve -metrics-check -kcored /tmp/kcored -d 2s

# Example smoke runs: each example builds itself and runs at a small
# scale, asserting its own verification line (skipped under -short).
examples:
	$(GO) test -count=1 ./examples/...

# Fuzzing smoke pass: the engine differential fuzzer (every registered
# engine against the BZ oracle on random mixed batches), the RESP codec
# round-trip fuzzer and the graph's arena fuzzer (add/remove/grow/reserve/
# clone/binary round trip against a model). CI runs all three on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMixedBatch -fuzztime 10s ./kcore
	$(GO) test -run '^$$' -fuzz FuzzRESP -fuzztime 10s ./resp
	$(GO) test -run '^$$' -fuzz FuzzGraphOps -fuzztime 10s ./graph

loadserve:
	$(GO) run ./cmd/loadserve -n 50000 -m 200000 -readers 8 -writers 2 -batch 64 -d 5s -check

# The networked stack end to end: kcored on an ER graph, driven by
# loadserve over TCP, invariant-checked server-side at the end. The PID
# is captured explicitly — job-control specs like %1 are not available
# in make's non-interactive /bin/sh.
loadserve-net:
	$(GO) run ./cmd/graphgen -model er -n 50000 -m 200000 > /tmp/kcored-er.txt
	$(GO) build -o /tmp/kcored ./cmd/kcored
	/tmp/kcored -addr 127.0.0.1:16380 -load /tmp/kcored-er.txt -quiet & pid=$$!; \
	sleep 2 && $(GO) run ./cmd/loadserve -net 127.0.0.1:16380 -readers 8 -writers 2 -d 5s -check; \
	status=$$?; kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit $$status
