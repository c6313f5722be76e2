package loadsim

import (
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/ingest"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// mixedFixture builds a small corpus, a read log, a valid mutation
// script (adds of fresh docs, then updates and deletes of them), and a
// live-engine constructor over a dedicated hybrid device.
func mixedFixture(t testing.TB) ([][]string, []Mutation, func(threshold int) *ingest.Cluster) {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    60_000,
		NumTerms:   30,
		MaxListLen: 20_000,
		MinListLen: 100,
		Alpha:      1.0,
		Seed:       71,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 120, PopularityAlpha: 0.6, Seed: 72,
	})
	queries := make([][]string, len(log))
	for i, q := range log {
		queries[i] = q.Terms
	}
	base := uint32(c.Index.NumDocs)
	var muts []Mutation
	for i := 0; i < 30; i++ {
		muts = append(muts, Mutation{Op: wal.OpAdd, DocID: base + uint32(i), Tokens: queries[i%len(queries)]})
	}
	for i := 0; i < 5; i++ {
		muts = append(muts, Mutation{Op: wal.OpUpdate, DocID: base + uint32(i), Tokens: queries[(i+7)%len(queries)]})
	}
	for i := 5; i < 10; i++ {
		muts = append(muts, Mutation{Op: wal.OpDelete, DocID: base + uint32(i)})
	}
	mk := func(threshold int) *ingest.Cluster {
		e, err := ingest.New(c.Index, ingest.Config{
			Engine: core.Config{
				Mode:   core.Hybrid,
				Device: gpu.New(hwmodel.DefaultGPU(), 0),
			},
			MergeThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return queries, muts, mk
}

// The two arms of the mixed workload share one arrival process (the
// engine never consumes the rng), so read/write interleavings are
// identical; only the merge arm commits merges, and their re-encoding
// cost lands on the shared device timeline.
func TestRunMixedMergeVsNoMergeArms(t *testing.T) {
	queries, muts, mk := mixedFixture(t)
	spec := Spec{ArrivalRate: 400, Mutations: muts, WriteFraction: 0.4, Seed: 9}

	noMerge := mk(12)
	off, err := Drive(LiveTarget(noMerge), queries, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer noMerge.Close()
	offStats := noMerge.Stats()

	specOn := spec
	specOn.Merge = true
	merged := mk(12)
	on, err := Drive(LiveTarget(merged), queries, specOn)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	onStats := merged.Stats()

	offReads, onReads := off.Interactive.Queries, on.Interactive.Queries
	if offReads != onReads || off.Writes != on.Writes {
		t.Fatalf("arms diverged: off %d/%d reads/writes, on %d/%d",
			offReads, off.Writes, onReads, on.Writes)
	}
	if offReads != len(queries) {
		t.Fatalf("reads = %d, want %d (run ends when the read log drains)", offReads, len(queries))
	}
	if off.Batch.Queries != 0 {
		t.Fatalf("a run without batch traffic tallied %d batch queries", off.Batch.Queries)
	}
	if off.Writes == 0 || off.Writes > len(muts) {
		t.Fatalf("Writes = %d, want within (0, %d]", off.Writes, len(muts))
	}
	if off.Interactive.Failed != 0 || on.Interactive.Failed != 0 {
		t.Fatalf("fault-free run failed reads: off=%d on=%d", off.Interactive.Failed, on.Interactive.Failed)
	}
	if a := on.Available(); a != 1 {
		t.Fatalf("availability = %v, want 1", a)
	}

	if offStats.Merges != 0 {
		t.Fatalf("no-merge arm committed %d merges", offStats.Merges)
	}
	seen := map[uint32]bool{}
	for _, m := range muts[:off.Writes] {
		seen[m.DocID] = true
	}
	if offStats.DeltaDocs != len(seen) {
		t.Fatalf("no-merge delta holds %d records, want %d distinct docs (every write unmerged)",
			offStats.DeltaDocs, len(seen))
	}
	if off.DeltaPeak != len(seen) {
		t.Fatalf("no-merge DeltaPeak = %d, want %d", off.DeltaPeak, len(seen))
	}

	if onStats.Merges == 0 {
		t.Fatal("merge arm committed no merges despite threshold crossings")
	}
	if onStats.MergeDevice <= 0 {
		t.Fatal("merge arm charged no device time for re-encoding")
	}
	if onStats.DeltaDocs >= offStats.DeltaDocs {
		t.Fatalf("merge arm residual delta %d not below no-merge %d",
			onStats.DeltaDocs, offStats.DeltaDocs)
	}
	if on.DeltaPeak > off.DeltaPeak {
		t.Fatalf("merge arm DeltaPeak %d exceeds no-merge %d", on.DeltaPeak, off.DeltaPeak)
	}
	if on.Latencies.Count() != onReads || off.Latencies.Count() != offReads {
		t.Fatal("latency sample counts disagree with read counts")
	}
	if off.Makespan <= 0 || on.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	if on.GPUBusy <= 0 {
		t.Fatal("hybrid run reported zero GPU busy fraction")
	}
}

// An empty read log or non-positive rate is a no-op, not an error.
func TestRunMixedDegenerate(t *testing.T) {
	queries, muts, mk := mixedFixture(t)
	e := mk(0)
	defer e.Close()
	res, err := Drive(LiveTarget(e), nil, Spec{ArrivalRate: 100, Mutations: muts, WriteFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactive.Queries != 0 || res.Writes != 0 || res.Latencies.Count() != 0 {
		t.Fatalf("empty read log ran work: %+v", res)
	}
	res, err = Drive(LiveTarget(e), queries[:3], Spec{ArrivalRate: 0, Mutations: muts, WriteFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactive.Queries != 0 || res.Writes != 0 {
		t.Fatalf("zero rate ran work: %+v", res)
	}
	var zero time.Duration
	if res.Makespan != zero {
		t.Fatalf("zero-rate makespan = %v", res.Makespan)
	}
}
