package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/kcore"
)

// scale holds every size constant of the benchmark. The full scale is
// the recorded one; smoke exists so `go test` can run all five
// workloads and a traced run in about a second each.
type scale struct {
	name string

	// graphSeed generates the graphs: they are the benchmark's datasets,
	// the same on every run, as the paper's are. Throughput on ten seeds'
	// social graphs differs by up to 1.4x (their largest hubs run from
	// 12k to 84k neighbours) while one graph repeats within 2%, which
	// buried every timing under the choice of seed. --seed picks what is
	// done to the graph: which edges are churned, which ids are read.
	graphSeed int64

	socialN   int     // vertices of the social graph
	socialDeg float64 // its average degree
	socialExp float64 // its power-law exponent
	churn     int     // real edges sampled from it, removed and re-inserted

	burstSlice  int // edges per burst-batch call
	burstSlices int // disjoint slices cycled through

	getDepth  int // CORE.GETs per read flight
	mgetEvery int // every n-th read flight is one CORE.MGET
	mgetIDs   int // ids in it

	durableSlice  int   // churn edges owned by each serve-write-durable connection
	durableDepth  int   // single-edge writes per flight
	checkpointOps int64 // persist.Options.CheckpointOps there

	mixedSlice    int           // churn edges owned by the serve-mixed writer
	mixedDepth    int           // single-edge writes per flight
	mixedInterval time.Duration // open-loop read flight period

	churnBlock int // edges a write connection removes before it re-inserts them (see churner)

	clusterCap   int32   // id capacity of the 2-shard map
	clusterEdges int     // edges routed in during set-up
	clusterCross float64 // share of them spanning both shards
	clusterChurn int     // of those, the prefix the measured phase removes and re-inserts
	clusterChunk int     // edges per routed write call, ids per MGet

	baN     int // vertices of the Barabási–Albert reference graph
	refRuns int // slices used by each engine reference row
}

// Where a full-scale constant differs from ISSUE 11's, the reason:
//   - checkpointOps 25k, not 50k: a time-boxed 8 s run acks ~80k edges, and
//     must still see at least 3 checkpoint cycles.
//   - mixedInterval 1 ms, not 500 µs: beside a writer the reader's median
//     flight is ≈ 0.5 ms, so at 500 µs it saturates its own schedule and the
//     open loop degenerates into a closed one.
//   - clusterCap 1<<15 with 100k edges, not 1<<17 with 400k: building a
//     sparse graph through the maintainer is super-linear (one 4 096-edge
//     insert took 6.6 s when the 4-core formed); the issue's prefill made
//     every set-up 18 s, and set-up runs at least 3 times per run.
//   - clusterChurn 2 048 (2% of the prefill): a larger churn region drags
//     the sparse graph across the 4-core threshold on some seeds only.
//   - churnBlock 1 024: the issue's whole-slice passes (remove 40k, then
//     insert 40k) assume fixed op counts; a run boxed by the clock stopped
//     mid-pass, so its insert/remove mix — and with it allocs_per_op and
//     the rate — depended on how fast the box was that minute.
var scales = map[string]scale{
	"full": {
		name: "full", graphSeed: 1,
		socialN: 200_000, socialDeg: 14.2, socialExp: 2.4, churn: 160_000,
		burstSlice: 10_000, burstSlices: 8,
		getDepth: 32, mgetEvery: 8, mgetIDs: 64,
		durableSlice: 40_000, durableDepth: 8, checkpointOps: 25_000,
		mixedSlice: 80_000, mixedDepth: 16, mixedInterval: time.Millisecond,
		churnBlock: 1024,
		clusterCap: 1 << 15, clusterEdges: 100_000, clusterCross: 0.10,
		clusterChurn: 1 << 11, clusterChunk: 256,
		baN: 200_000, refRuns: 2,
	},
	"smoke": {
		name: "smoke", graphSeed: 1,
		socialN: 2_000, socialDeg: 14.2, socialExp: 2.4, churn: 1_600,
		burstSlice: 100, burstSlices: 8,
		getDepth: 32, mgetEvery: 8, mgetIDs: 64,
		durableSlice: 400, durableDepth: 8, checkpointOps: 500,
		mixedSlice: 800, mixedDepth: 16, mixedInterval: time.Millisecond,
		churnBlock: 80,
		clusterCap: 1 << 11, clusterEdges: 6_000, clusterCross: 0.10,
		clusterChurn: 1 << 8, clusterChunk: 64,
		baN: 2_000, refRuns: 1,
	},
}

// inputs is everything a run feeds the system, all derived from the
// scale's graph seed and the run's seed. The system under test never
// sees either, nor the workload name.
type inputs struct {
	sc     scale
	seed   int64
	social *graph.Graph // pristine; every system gets its own Clone
	churn  []graph.Edge // distinct existing edges of social
	cores  []int32      // BZ on social: what a read of the untouched graph must return
	routed []graph.Edge // cluster-routed prefill, in seeded order (churn region first)
	buildS float64      // seconds spent generating, reported as graph.build_s
}

func buildInputs(workload string, sc scale, seed int64) (*inputs, error) {
	start := time.Now()
	in := &inputs{sc: sc, seed: seed}
	if workload == "cluster-routed" {
		in.routed = gen.CrossRangeEdges(sc.clusterCap, 2, sc.clusterEdges, sc.clusterCross, sc.graphSeed)
		rand.New(rand.NewSource(seed)).Shuffle(len(in.routed), func(i, j int) {
			in.routed[i], in.routed[j] = in.routed[j], in.routed[i]
		})
	} else {
		in.social = gen.PowerLawCluster(sc.socialN, sc.socialDeg, sc.socialExp, sc.graphSeed)
		// Cloned: SampleEdges returns a prefix of the whole shuffled edge
		// list, which would otherwise stay live (and in every heap figure).
		in.churn = slices.Clone(gen.SampleEdges(in.social, sc.churn, seed+1))
		if len(in.churn) < sc.churn {
			return nil, fmt.Errorf("social graph has only %d edges, need %d to churn", len(in.churn), sc.churn)
		}
		in.cores = kcore.Decompose(in.social)
	}
	in.buildS = time.Since(start).Seconds()
	return in, nil
}

// idStream is a seeded uniform vertex-id source; each client goroutine
// owns one.
type idStream struct {
	rng *rand.Rand
	n   int32
}

func newIDStream(seed int64, n int) *idStream {
	return &idStream{rng: rand.New(rand.NewSource(seed)), n: int32(n)}
}

func (s *idStream) fill(ids []int32) {
	for i := range ids {
		ids[i] = s.rng.Int31n(s.n)
	}
}
