package ingest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/index"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// running reads the writer's running collection statistics.
func running(w *writer) corpusStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// modelStats is the brute-force reference: a scan of the live documents.
func modelStats(c *logicalCorpus) corpusStats {
	var s corpusStats
	for id, toks := range c.docs {
		s.numDocs = max(s.numDocs, int(id)+1)
		s.lenSum += uint64(len(toks))
		s.lenCnt++
	}
	return s
}

// liveUnderTest is the part of Engine and Cluster the statistics tests
// drive; reopen recovers the WAL directory into a new one.
type liveUnderTest struct {
	w          *writer
	apply      func(op wal.Op, docID uint32, tokens []string) error
	merge      func(step int) error
	mainDocs   func() int // NumDocs of a merged segment (−1: not stamped exactly)
	checkpoint func() error
	crash      func()
	reopen     func(t *testing.T) liveUnderTest
	close      func()
}

func engineUnderTest(t *testing.T, seed *index.Index, cfg Config) liveUnderTest {
	t.Helper()
	e, err := Open(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return liveUnderTest{
		w: &e.writer, apply: e.Apply, checkpoint: e.Checkpoint, crash: e.Crash, close: e.Close,
		merge:    func(int) error { return e.Merge() },
		mainDocs: func() int { return e.Index().NumDocs },
		reopen:   func(t *testing.T) liveUnderTest { return engineUnderTest(t, seed, cfg) },
	}
}

func clusterUnderTest(t *testing.T, seed *index.Index, cfg ClusterConfig) liveUnderTest {
	t.Helper()
	c, err := OpenCluster(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return liveUnderTest{
		w: &c.writer, apply: c.Apply, checkpoint: c.Checkpoint, crash: c.Crash, close: c.Close,
		merge:    func(step int) error { return c.MergeShard(step / 50 % c.Shards()) },
		mainDocs: func() int { return -1 }, // a shard merge stamps best-effort statistics
		reopen:   func(t *testing.T) liveUnderTest { return clusterUnderTest(t, seed, cfg) },
	}
}

// The running aggregates equal a scan of the live documents after every
// mutation, merge and recovery of a long seeded history that leans on the
// cases arithmetic alone gets wrong: the top document dying (over a merged
// tombstone, over page-sized docID gaps, several in a row), a live
// document's length being replaced, and a WAL suffix replayed over a
// checkpoint.
func TestRunningStatsMatchLiveScan(t *testing.T) {
	base := seedCorpus(41, 30, 12)
	for name, open := range map[string]func(t *testing.T, seed *index.Index, dir string) liveUnderTest{
		"engine": func(t *testing.T, seed *index.Index, dir string) liveUnderTest {
			return engineUnderTest(t, seed, Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir})
		},
		"cluster": func(t *testing.T, seed *index.Index, dir string) liveUnderTest {
			return clusterUnderTest(t, seed, ClusterConfig{
				Shards: 2, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}}, WALDir: dir,
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			lc := base.clone()
			u := open(t, lc.build(t, index.CodecEF), t.TempDir())
			defer func() { u.close() }()
			r := rand.New(rand.NewSource(42))
			check := func(tag string) {
				t.Helper()
				if got, want := running(u.w), modelStats(lc); got != want {
					t.Fatalf("%s: running aggregates %+v, a scan of the live documents gives %+v", tag, got, want)
				}
			}
			check("seed")
			for step := 1; step <= 2000; step++ {
				live := make([]uint32, 0, len(lc.docs))
				for id := range lc.docs {
					live = append(live, id)
				}
				sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
				top := uint32(0)
				if len(live) > 0 {
					top = live[len(live)-1]
				}
				// One in three adds leaves a gap below it, up to three
				// length-table pages wide; half the deletes and a third of
				// the updates hit the current top document.
				op, id := wal.OpAdd, top+1
				switch k := r.Intn(10); {
				case len(live) == 0 || (k < 4 && len(live) < 120):
					if r.Intn(3) == 0 {
						id += uint32(r.Intn(3 << index.DocLenShift))
					}
				case k < 7:
					op, id = wal.OpUpdate, live[r.Intn(len(live))]
					if r.Intn(3) == 0 {
						id = top
					}
				default:
					op, id = wal.OpDelete, live[r.Intn(len(live))]
					if r.Intn(2) == 0 {
						id = top
					}
				}
				var doc []string
				if op == wal.OpDelete {
					delete(lc.docs, id)
				} else {
					doc = genDoc(r, 12)
					lc.docs[id] = doc
				}
				if err := u.apply(op, id, doc); err != nil {
					t.Fatalf("step %d %s doc %d: %v", step, op, id, err)
				}
				check(fmt.Sprintf("step %d %s doc %d", step, op, id))

				switch {
				case step%400 == 0:
					// The checkpoint ten steps back covers part of the
					// history; the rest is replayed record by record.
					u.crash()
					u = u.reopen(t)
					check(fmt.Sprintf("step %d reopen", step))
				case step%400 == 390:
					if err := u.checkpoint(); err != nil {
						t.Fatalf("step %d checkpoint: %v", step, err)
					}
				case step%50 == 0:
					if err := u.merge(step); err != nil {
						t.Fatalf("step %d merge: %v", step, err)
					}
					check(fmt.Sprintf("step %d merge", step))
					if got := u.mainDocs(); got >= 0 && got != modelStats(lc).numDocs {
						t.Fatalf("step %d: merged segment NumDocs %d, want %d", step, got, modelStats(lc).numDocs)
					}
				}
			}
		})
	}
}

// A docID four billion above the corpus, merged and then deleted: the one
// descent that finds the new top document crosses the gap a shared page
// at a time, and nothing afterwards depends on the gap at all. (Before
// the statistics were kept running, every freeze after the delete walked
// the gap docID by docID: seconds per query, under the writer lock.)
func TestHugeDocIDGapCostsNothingAfterDelete(t *testing.T) {
	const top = 4_000_000_000
	lc := newLogicalCorpus()
	lc.docs[0] = []string{"a", "b"}
	lc.docs[1] = []string{"a", "c", "c"}
	for name, open := range map[string]func(t *testing.T) (liveUnderTest, func([]string) ([]docBits, error)){
		"engine": func(t *testing.T) (liveUnderTest, func([]string) ([]docBits, error)) {
			e, err := New(lc.build(t, index.CodecEF), Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				t.Fatal(err)
			}
			return liveUnderTest{w: &e.writer, apply: e.Apply, close: e.Close,
					merge:    func(int) error { return e.Merge() },
					mainDocs: func() int { return e.Index().NumDocs },
				}, func(q []string) ([]docBits, error) {
					r, err := e.Search(q)
					if err != nil {
						return nil, err
					}
					return bitsOf(r.Result), nil
				}
		},
		"cluster": func(t *testing.T) (liveUnderTest, func([]string) ([]docBits, error)) {
			c, err := NewCluster(lc.build(t, index.CodecEF), ClusterConfig{
				Shards: 2, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return liveUnderTest{w: &c.writer, apply: c.Apply, close: c.Close,
					merge:    func(int) error { return c.MergeShard(workload.ShardOf(top, 2)) },
					mainDocs: func() int { return c.t.shards[workload.ShardOf(top, 2)].ix.NumDocs },
				}, func(q []string) ([]docBits, error) {
					r, err := c.Search(q)
					if err != nil {
						return nil, err
					}
					return clusterBits(r), nil
				}
		},
	} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			u, search := open(t)
			defer u.close()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(u.apply(wal.OpAdd, top, []string{"a"}))
			must(u.merge(0))
			if got := u.mainDocs(); got != top+1 {
				t.Fatalf("merged segment NumDocs %d, want %d", got, top+1)
			}
			must(u.apply(wal.OpDelete, top, nil))
			must(u.apply(wal.OpAdd, 5, []string{"a", "d"}))
			final := lc.clone()
			final.docs[5] = []string{"a", "d"}
			got, err := search([]string{"a"})
			must(err)

			fresh := final.build(t, index.CodecEF)
			eng, err := core.New(fresh, core.Config{Mode: core.CPUOnly})
			must(err)
			want, err := eng.Search([]string{"a"})
			must(err)
			if !sameDocs(got, bitsOf(want)) {
				t.Errorf("results diverge from a fresh build:\n got=%v\nwant=%v", got, bitsOf(want))
			}
			if st, scan := running(u.w), statsOf(fresh.DocLens); st != scan || st.numDocs != fresh.NumDocs {
				t.Errorf("running aggregates %+v, a fresh build has %+v (NumDocs %d)", st, scan, fresh.NumDocs)
			}
			must(u.merge(0))
			if got := u.mainDocs(); got != fresh.NumDocs {
				t.Errorf("merged segment NumDocs %d, a fresh build has %d", got, fresh.NumDocs)
			}
			// The parent took over 20 s here (13 s of it in the engine's two
			// freezes). The instrumented build is given its slowdown: the
			// 23 MB page table over the gap is a million instrumented writes.
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
	if _, _, err := w.open(newLogicalCorpus().build(t, index.CodecEF), Config{
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
