GO ?= go

.PHONY: all build vet test race engine-flake fuzz-smoke crash cluster-check metrics-check examples

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
# The snapshot package rides on the first line: its reclamation hammer
# (pinned and escaped readers audited beside a recycling writer) catches a
# pin that skips its re-check only at full speed, without the race detector.
# The third runs the write futures' channel-free completion (a WaitGroup
# the applier releases after writing the result) and their reuse after Wait,
# and the reclamation hammer, under the race detector.
# The next two run the lock-free OM readers and the graph's reserved
# concurrent AddEdge under the race detector. The last runs the log's
# commit contract (append before apply, commit before publish) and
# RemoveVertex's one-batch removal behind a parked commit, the
# FsyncAlways syncer's zero-allocation hand-off and its stop at Close,
# recovery's whole-publication and epoch-chain rules, its commit rule (the
# current generation is the newest checkpoint under its final name), and a
# sync being the checkpoint it takes (its tap registered at that barrier)
# under the race detector.
engine-flake:
	GOMAXPROCS=2 $(GO) test -count=5 ./internal/pcore/ ./internal/core/ ./internal/snapshot/
	GOMAXPROCS=2 $(GO) test -count=5 -run 'TestEngineConformance|TestRepairTargetsReported' ./kcore
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestAsync|TestPendingReuse|TestFinishedOpIsGarbage|TestCloseFallback|TestWriteFlightAllocs|TestReclaimHammer' ./kcore ./internal/snapshot/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./internal/om/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./graph/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestCommitGatesPublication|TestRemoveVertexIsOneBatch|TestAppendBatchZeroAlloc|TestCloseStopsSyncer|TestTornLogRecoversPublishedEpoch|TestRecoverStopsAtEpochGap|TestCrashBetweenRotationAndManifest|TestSyncIsCheckpoint' ./kcore ./persist

# The process drills are go test cases in cmd/kcored, on one fixture
# (harness_test.go): each spawns real kcored processes, so each skips
# under -short and runs in `make test`. These targets run one drill set.
#
# Crash recovery: kill -9 a durable kcored mid-burst and check that the
# recovered edges are the acked ones plus a prefix of the in-flight
# burst, and that a restart serves their BZ cores; SIGTERM leaves no log
# tail; a -load import is durable before serving; and replication: kill
# -9 the leader, promote-by-restart, the follower re-syncs to the
# acked-mirror oracle.
crash:
	$(GO) test -count=1 -run 'TestCrashRecovery|TestReplicaResync|TestGracefulRestart|TestLoadImport' -v ./cmd/kcored

# Sharded cluster: three kcored shards per engine, routed churn with
# cross-shard edges, every routed read checked against cluster.Oracle.
cluster-check:
	$(GO) test -count=1 -run 'TestClusterRoutedChurn' -v ./cmd/kcored

# Observability: a durable kcored with -metrics-addr and -slowlog-ms 0,
# plus a follower; every metric family, README's included, present and
# parseable, the counters advance, each histogram's +Inf bucket equals its
# _count, CORE.SLOWLOG GET/LEN/RESET and the pprof index.
metrics-check:
	$(GO) test -count=1 -run 'TestMetricsEndpoint' -v ./cmd/kcored

# Example smoke runs: each example builds itself and runs at a small
# scale, asserting its own verification line (skipped under -short).
examples:
	$(GO) test -count=1 ./examples/...

# Fuzzing smoke pass: the engine differential fuzzer (every registered
# engine against the BZ oracle on random mixed batches), the RESP codec
# round-trip fuzzer, the graph's arena fuzzer (add/remove/grow/reserve/
# clone/binary round trip against a model), the checkpoint decoder and
# the log record decoder (arbitrary bytes never panic; what each accepts
# re-encodes byte for byte). CI runs all five on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMixedBatch -fuzztime 10s ./kcore
	$(GO) test -run '^$$' -fuzz FuzzRESP -fuzztime 10s ./resp
	$(GO) test -run '^$$' -fuzz FuzzGraphOps -fuzztime 10s ./graph
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s ./persist
	$(GO) test -run '^$$' -fuzz FuzzStreamRecord -fuzztime 10s ./persist
