package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/wal"
)

// TestClusterQuiescedGoldenParity: after mutations and a Quiesce
// (rebuild), the live cluster must be indistinguishable from a cluster
// freshly built over the partitioned live corpus — documents, scores,
// per-shard latencies, and scatter-gather stats alike.
func TestClusterQuiescedGoldenParity(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(31, 150, vocab)
	script := genScript(32, lc.clone(), 60, vocab)

	ccfg := cluster.Config{Engine: core.Config{Mode: core.Hybrid}}
	live, err := OpenCluster(lc.build(t), ClusterConfig{
		Shards: 2, Cluster: ccfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	queries := queryLog(vocab)
	for i, m := range script {
		apply(t, live, lc, m)
		if i%17 == 0 { // keep read traffic flowing while mutating
			if _, err := live.Query(context.Background(), cluster.Request{Terms: queries[i%len(queries)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st := live.Stats()
	if st.DeltaDocs != 0 {
		t.Fatalf("quiesced delta docs = %d, want 0", st.DeltaDocs)
	}
	if st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", st.Rebuilds)
	}

	ref, err := cluster.New(lc.partition(lc.build(t), 2), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for qi, q := range queries {
		lr, err := live.Query(context.Background(), cluster.Request{Terms: q})
		if err != nil {
			t.Fatalf("q%d live: %v", qi, err)
		}
		rr, err := ref.Search(nil, q)
		if err != nil {
			t.Fatalf("q%d ref: %v", qi, err)
		}
		if got, want := clusterGolden(lr.Result), clusterGolden(rr); got != want {
			t.Errorf("q%d %v diverges\n live=%s\nfresh=%s", qi, q, got, want)
		}
	}
}

// clusterGolden renders the comparison-relevant portion of a cluster
// result: ranked docs (bit-exact scores) plus the scatter-gather timing
// and each shard's execution record.
func clusterGolden(r *cluster.Result) string {
	s := fmt.Sprintf("docs=%v lat=%v max=%v merge=%v",
		bitsOf(r.Docs), r.Stats.Latency, r.Stats.MaxShard, r.Stats.MergeTime)
	for _, sh := range r.Stats.Shards {
		s += fmt.Sprintf(" [s%dr%d eff=%v cand=%d cpu=%v gpu=%v wait=%v mig=%v lat=%v]",
			sh.Shard, sh.Replica, sh.Effective, sh.Query.Candidates,
			sh.Query.CPUTime, sh.Query.GPUTime, sh.Query.GPUWait, sh.Query.Migrated, sh.Query.Latency)
	}
	return s
}

// TestClusterSplit: crossing the shard-size watermark triggers a
// background split that re-partitions the corpus into one more shard,
// with routing updated for queries and mutations mid-flight.
func TestClusterSplit(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(41, 60, vocab)
	c, err := OpenCluster(lc.build(t), ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		SplitWatermark: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Explicit split first: 2 → 3 shards, parity preserved.
	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Shards; got != 3 {
		t.Fatalf("shards after explicit split = %d, want 3", got)
	}
	queries := queryLog(vocab)
	checkOracle(t, c, lc, queries, "explicit-split")

	// Now push the last shard past the watermark — docIDs above the
	// corpus land in its window — and wait for the background split. Its
	// four windows hold the live documents evenly, so the shard that
	// crossed the watermark sheds its excess: no shard stays past it, and
	// the next append to the last shard cannot split again.
	const watermark = 45
	next, last := uint32(10_000), c.Stats().ShardDocs[2]
	for added := 0; last+added <= watermark; added++ {
		id := next
		next += 3
		m := mutation{kind: wal.OpAdd, docID: id, tokens: genDoc(rand.New(rand.NewSource(int64(added))), vocab)}
		apply(t, c, lc, m)
	}
	eventually(t, "the watermark split", func() bool { return c.Stats().Shards != 3 })
	if got := c.Stats().Shards; got != 4 {
		t.Fatalf("shards after watermark split = %d, want 4", got)
	}
	st := c.Stats()
	if st.Splits != 2 {
		t.Errorf("splits = %d, want 2 (explicit and watermark)", st.Splits)
	}
	for s, n := range st.ShardDocs {
		if n > watermark {
			t.Errorf("after the split shard %d holds %d live documents %v, past the watermark %d", s, n, st.ShardDocs, watermark)
		}
	}
	checkOracle(t, c, lc, queries, "watermark-split")

	// Routing after the split: mutations to fresh docIDs land on the new
	// topology and stay queryable.
	m := mutation{kind: wal.OpAdd, docID: 50_000, tokens: []string{"fresh-term", word(0), word(1)}}
	apply(t, c, lc, m)
	checkOracle(t, c, lc, queries, "post-split-ingest")
}

// TestClusterConcurrentSnapshotIsolation: concurrent mutations, shard
// merges, a split, and readers — every result must be bit-identical to a
// quiesced corpus at the generation its snapshot reports, and observed
// generations must be monotone per reader.
func TestClusterConcurrentSnapshotIsolation(t *testing.T) {
	const vocab = 12
	base := seedCorpus(61, 40, vocab)
	script := genScript(62, base.clone(), 30, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}

	expected := byGen(base, script, queries)

	c, err := OpenCluster(base.build(t), ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		MergeThreshold: 8,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The writer runs the script with explicit shard merges and one
	// mid-life split.
	soak(t, c, 4, queries, expected, func() error {
		for i, m := range script {
			if err := c.Apply(m.kind, m.docID, m.tokens); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
			if (i+1)%12 == 0 {
				if err := c.MergeShard(i % 2); err != nil {
					return fmt.Errorf("merge: %w", err)
				}
			}
			if i == len(script)/2 {
				if err := c.Split(); err != nil {
					return fmt.Errorf("split: %w", err)
				}
			}
		}
		return nil
	})

	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	final, err := c.Query(context.Background(), cluster.Request{Terms: queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bitsOf(final.Docs), expected[len(script)][0]; !sameDocs(got, want) {
		t.Errorf("final quiesced: docs diverge\n got=%v\nwant=%v", got, want)
	}
	c.Close()
	if _, err := c.Query(context.Background(), cluster.Request{Terms: queries[0]}); err != ErrClosed {
		t.Errorf("search after close = %v, want ErrClosed", err)
	}
	if err := c.Apply(wal.OpAdd, 99_999, []string{"x"}); err != ErrClosed {
		t.Errorf("add after close = %v, want ErrClosed", err)
	}
}

// TestClusterAppendsRouteToTheLastWindow: at three shards, documents
// appended above the seed's NumDocs lie in the last shard's window, which
// is open above: they land in its delta alone, answer queries there, and
// survive a split (into windows that hold the live documents evenly) and
// a reopen of the WAL directory with the shard count and every document
// intact.
func TestClusterAppendsRouteToTheLastWindow(t *testing.T) {
	const vocab, seedDocs, appended = 12, 90, 30
	lc := seedCorpus(51, seedDocs, vocab)
	dir := t.TempDir()
	cfg := ClusterConfig{Shards: 3, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}}, WALDir: dir}
	seed := lc.build(t)
	c, err := OpenCluster(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := queryLog(vocab)
	r := rand.New(rand.NewSource(52))
	for i := range appended {
		apply(t, c, lc, mutation{kind: wal.OpAdd, docID: uint32(seedDocs + 7*i), tokens: genDoc(r, vocab)})
	}
	if st := c.Stats(); st.ShardDelta[0] != 0 || st.ShardDelta[1] != 0 || st.ShardDelta[2] != appended ||
		st.ShardDocs[2] != seedDocs/3+appended {
		t.Fatalf("appends pending %v over live %v, want all %d on the last shard", st.ShardDelta, st.ShardDocs, appended)
	}
	checkOracle(t, c, lc, queries, "appended")
	if err := c.MergeShard(2); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, c, lc, queries, "merged")

	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	// Four windows that hold the live documents evenly: the appends no
	// longer sit on one shard.
	st := c.Stats()
	if st.Shards != 4 || !slices.Equal(st.ShardDocs, []int{30, 30, 30, 30}) {
		t.Fatalf("after the split: %d shards holding %v live documents; want 4 holding 30 each", st.Shards, st.ShardDocs)
	}
	checkOracle(t, c, lc, queries, "split")
	apply(t, c, lc, mutation{kind: wal.OpAdd, docID: 5_000, tokens: genDoc(r, vocab)})
	c.Close()

	c, err = OpenCluster(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.Shards != 4 || st.LiveDocs != seedDocs+appended+1 {
		t.Fatalf("reopened with %d shards, %d live documents; want 4, %d", st.Shards, st.LiveDocs, seedDocs+appended+1)
	}
	checkOracle(t, c, lc, queries, "reopened")
}
