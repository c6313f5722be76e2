package ingest

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// running reads the writer's running collection statistics.
func running(w *writer) corpusStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// A docID four billion above the corpus, merged and then deleted: the one
// descent that finds the new top document crosses the gap a shared page
// at a time, and nothing afterwards depends on the gap at all. (Before
// the statistics were kept running, every freeze after the delete walked
// the gap docID by docID: seconds per query, under the writer lock.)
func TestHugeDocIDGapCostsNothingAfterDelete(t *testing.T) {
	const top = 4_000_000_000
	lc := newOracle()
	lc.docs[0] = []string{"a", "b"}
	lc.docs[1] = []string{"a", "c", "c"}
	for name, shards := range map[string]int{"engine": 1, "cluster": 2} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			c, err := OpenCluster(lc.build(t), ClusterConfig{
				Shards: shards, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := workload.ShardOf(top, shards)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c.Add(top, []string{"a"}))
			must(c.MergeShard(s))
			if got := segment(c, s).NumDocs; got != top+1 {
				t.Fatalf("merged segment NumDocs %d, want %d", got, top+1)
			}
			must(c.Delete(top))
			must(c.Add(5, []string{"a", "d"}))
			final := lc.clone()
			final.docs[5] = []string{"a", "d"}
			checkOracle(t, c, final, [][]string{{"a"}}, "after the delete")
			fresh := final.build(t)
			if st, scan := running(&c.writer), statsOf(fresh.DocLens); st != scan || st.numDocs != fresh.NumDocs {
				t.Errorf("running aggregates %+v, a fresh build has %+v (NumDocs %d)", st, scan, fresh.NumDocs)
			}
			must(c.MergeShard(s))
			if got := segment(c, s).NumDocs; got != fresh.NumDocs {
				t.Errorf("merged segment NumDocs %d, a fresh build has %d", got, fresh.NumDocs)
			}
			// Before the statistics were kept running this took over 20 s
			// (13 s of it in the single-node engine's two freezes). The
			// instrumented build is given its slowdown: the 23 MB page
			// table over the gap is a million instrumented writes.
			budget := time.Second
			if raceDetector {
				budget *= 5
			}
			if took := time.Since(start); took > budget {
				t.Errorf("took %v, want under %v", took, budget)
			}
		})
	}
}

// What an accepted mutation starts: crossing the split watermark starts a
// split in place of the merge only when the split slot was free — with a
// split already running the mutation falls through to the merge trigger —
// and no slot is ever claimed twice; the checkpoint cadence advances once
// per mutation whether a checkpoint is running or not.
func TestAcceptedStartsDueWorkOnce(t *testing.T) {
	var w writer
	if _, _, err := w.open(newOracle().build(t), Config{
		AutoMerge: true, MergeThreshold: 3, CheckpointEvery: 2, WALDir: t.TempDir(),
	}, 1); err != nil {
		t.Fatal(err)
	}
	defer w.store.Close()
	release := make(chan struct{})
	var started []string // appended by the stubs, read after bg.Wait
	stub := func(name string) {
		w.statsMu.Lock()
		started = append(started, name)
		w.statsMu.Unlock()
		<-release
	}
	w.split = func(n int) error { stub(fmt.Sprintf("split→%d", n)); return nil }
	w.merge = func(s int) error { stub(fmt.Sprintf("merge s%d", s)); return nil }
	w.checkpoint = func() error { stub("checkpoint"); return nil }

	for i, step := range []struct {
		pending, shard, splitTo     int
		splitting, merging, ckpting bool
		sinceCkpt                   int64
	}{
		{pending: 2, shard: 1, splitTo: 0, sinceCkpt: 1},                                                // nothing due
		{pending: 3, shard: 1, splitTo: 4, splitting: true, ckpting: true, sinceCkpt: 2},                // watermark crossed, slot free: split, no merge
		{pending: 2, shard: 0, splitTo: 4, splitting: true, ckpting: true, sinceCkpt: 3},                // split in flight, merge not due
		{pending: 3, shard: 0, splitTo: 4, splitting: true, merging: true, ckpting: true, sinceCkpt: 4}, // split in flight: falls through to the merge
		{pending: 9, shard: 1, splitTo: 4, splitting: true, merging: true, ckpting: true, sinceCkpt: 5}, // everything in flight: nothing new
	} {
		w.accepted(wal.OpAdd, step.pending, step.shard, step.splitTo)
		if s, m, c := w.splitting.Load(), w.merging.Load(), w.ckpting.Load(); s != step.splitting || m != step.merging || c != step.ckpting {
			t.Errorf("step %d: splitting/merging/checkpointing = %v/%v/%v, want %v/%v/%v", i, s, m, c, step.splitting, step.merging, step.ckpting)
		}
		if got := w.sinceCkpt.Load(); got != step.sinceCkpt {
			t.Errorf("step %d: checkpoint cadence at %d, want %d", i, got, step.sinceCkpt)
		}
	}
	close(release)
	w.stop()
	sort.Strings(started)
	if want := []string{"checkpoint", "merge s0", "split→4"}; fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("started %v, want %v", started, want)
	}
	if w.splitting.Load() || w.merging.Load() || w.ckpting.Load() {
		t.Error("a slot is still claimed after its work returned")
	}
	if st := w.counters(); st.Adds != 5 {
		t.Errorf("counted %d adds, want 5", st.Adds)
	}
	w.accepted(wal.OpAdd, 9, 0, 4)
	if w.splitting.Load() || w.merging.Load() || w.ckpting.Load() {
		t.Error("work started after stop")
	}
}
