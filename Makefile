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
# and the reclamation hammer, a pin held across a Load at a lower epoch and
# a pin at epoch 0, under the race detector.
# The next two run the lock-free OM readers and the graph's reserved
# concurrent AddEdge under the race detector. The next runs the log's
# commit contract (append before apply, commit before publish), the
# FsyncAlways syncer's zero-allocation hand-off and its stop at Close,
# recovery's whole-publication and epoch-chain rules, its commit rule (the
# current generation is the newest checkpoint under its final name), a
# sync being the checkpoint it takes, and a sync session reading the log:
# it ships only published records, drains a backlog from disk, ends a
# whole checkpoint behind, and wakes when the manager closes, under the
# race detector. The next two run one epoch space under the race
# detector: a follower publishes each leader state at the leader's epoch
# (before its first bootstrap at 0, and past a vertex ceiling below the
# leader's universe), and a leader killed and restarted under
# -aof-fsync always resumes at the epoch it recovered.
# The next runs the two batches that spend their rebuild budget (DESIGN.md,
# "The rebuild budget"), in pcore and on the product path, under the race
# detector: the workers' shared Σ|V+|
# and stop flag are the one state the rule adds between them, a worker that
# sees the flag stops between edges while the other finishes its edge, and
# the rebuild after the join reads both workers' adjacency and core writes.
# The last line runs the commit-lock and repair-pass tests under the race
# detector: the workers mark the repair targets into one shared bit set and
# must all have marked before any scans its words (DESIGN.md, "The repair
# pass"), and the commit lock is a spin lock whose waiters never park.
engine-flake:
	GOMAXPROCS=2 $(GO) test -count=5 ./internal/pcore/ ./internal/core/ ./internal/snapshot/
	GOMAXPROCS=2 $(GO) test -count=5 -run 'TestEngineConformance|TestRepairTargetsReported' ./kcore
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestAsync|TestPendingReuse|TestFinishedOpIsGarbage|TestUseAfterClose|TestWriteFlightAllocs|TestReclaimHammer|TestPinAcrossLowerLoad|TestEpochZeroPinHoldsItsSlot' ./kcore ./internal/snapshot/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./internal/om/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestConcurrent' ./graph/
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestCommitGatesPublication|TestAppendBatchZeroAlloc|TestCloseStopsSyncer|TestTornLogRecoversPublishedEpoch|TestRecoverStopsAtEpochGap|TestCrashBetweenRotationAndManifest|TestSyncIsCheckpoint|TestSessionShipsOnlyPublished|TestSlowFollowerDropped|TestSyncClosedOnManagerClose' ./kcore ./persist
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestFollowerServesLeaderEpoch|TestFollowerWaitsForFirstBootstrap|TestFollowerBelowLeaderCeiling|TestFollowerRefusesEpochGap|TestFollowerReplaysLeaderBatches' ./server
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestReplicaResyncAfterLeaderKill' ./cmd/kcored
	GOMAXPROCS=2 $(GO) test -race -count=10 -run 'TestBudgetSpentFinishesWithRebuild|TestSparsePrefillBoundsTraversal' ./internal/pcore/ ./kcore
	GOMAXPROCS=2 $(GO) test -race -count=5 -run 'TestCommitRace|TestLargerScaleInsert|TestRepair' ./internal/pcore/

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
