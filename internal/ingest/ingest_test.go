package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/wal"
)

// ---------------------------------------------------------------------------
// Quiesced golden parity: after Quiesce the engine must be byte-identical to
// a freshly built engine over the same logical corpus — docs, candidate
// counts, migration decisions, op traces, and simulated timings — at one and
// two devices, with the batching stage off and on.
// ---------------------------------------------------------------------------

// engineResult reads a live engine's result as its serving engine's: the
// one shard's record, under the cluster's docs and critical path — which
// a one-shard cluster must leave exactly as the engine reported them.
func engineResult(r *ClusterResult) *core.Result {
	st := r.Stats.Shards[0].Query
	st.Latency = r.Stats.Latency
	return &core.Result{Docs: r.Docs, Stats: st}
}

// golden renders what a quiesced engine must repeat of a fresh one's
// answer: docs, candidates, migration, waits, latency, op trace and plan.
// BatchID is a device-lifetime counter, deliberately left out: the live
// engine's devices served merge traffic before the quiesced queries ran.
func golden(r *core.Result) string {
	plan := slices.Clone(r.Stats.Plan)
	for i := range plan {
		plan[i].BatchID = 0
	}
	return fmt.Sprintf("docs=%v cand=%d migrated=%v wait=%v lat=%v ops=%+v plan=%+v",
		bitsOf(r.Docs), r.Stats.Candidates, r.Stats.Migrated, r.Stats.GPUWait, r.Stats.Latency, r.Stats.Ops, plan)
}

// checkGolden holds a drained live engine's answers to a fresh engine's.
func checkGolden(t *testing.T, e *Cluster, fresh *core.Engine, queries [][]string) {
	t.Helper()
	for qi, q := range queries {
		lr, err := e.Search(q)
		if err != nil {
			t.Fatalf("q%d live: %v", qi, err)
		}
		fr, err := fresh.Search(q)
		if err != nil {
			t.Fatalf("q%d fresh: %v", qi, err)
		}
		if lg, fg := golden(engineResult(lr)), golden(fr); lg != fg {
			t.Errorf("q%d %v: the drained live engine diverges from a fresh one\n live=%s\nfresh=%s", qi, q, lg, fg)
		}
	}
}

func TestQuiescedGoldenParity(t *testing.T) {
	const vocab = 16
	base := seedCorpus(21, 150, vocab)
	script := genScript(22, base.clone(), 80, vocab)

	for _, devices := range []int{1, 2} {
		for _, batch := range []time.Duration{0, 200 * time.Microsecond} {
			name := fmt.Sprintf("devices=%d/batch=%v", devices, batch > 0)
			t.Run(name, func(t *testing.T) {
				mkCfg := func() core.Config {
					return core.Config{
						Mode:        core.Hybrid,
						Device:      gpu.New(hwmodel.DefaultGPU(), 0),
						Devices:     devices,
						BatchWindow: batch,
					}
				}
				c := base.clone()
				e, err := New(c.build(t), Config{Engine: mkCfg()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for _, m := range script {
					apply(t, e, c, m)
				}
				// Serve a few queries against the un-merged delta first: the
				// quiesced state must not depend on prior read traffic.
				for _, q := range queryLog(vocab)[:4] {
					if _, err := e.Search(q); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if lag := e.Stats().Lag(); lag != 0 {
					t.Fatalf("post-quiesce lag = %d", lag)
				}

				fresh, err := core.New(c.build(t), mkCfg())
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, e, fresh, queryLog(vocab))
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Merged segment vs fresh build: the re-encoded index must match a from-
// scratch build structurally — same dictionary, same compressed blocks
// (both codecs), same statistics — including tombstone-only lists (term
// leaves the dictionary) and delta-only terms (term enters it). A merge
// that drains a one-shard cluster's delta leaves a clean snapshot: the
// frozen-corpus path answers, plans and prices exactly as a fresh engine.
// ---------------------------------------------------------------------------

func TestMergedIndexMatchesFreshBuild(t *testing.T) {
	c := newOracle()
	// Hand-built corpus: "rare" lives only in docs 3 and 7; "solo" only in
	// doc 5. Deleting 3+7 must drop "rare" from the merged dictionary.
	for id := 0; id < 40; id++ {
		toks := []string{word(id % 4), word(id % 7), word(0)}
		switch id {
		case 3, 7:
			toks = append(toks, "rare")
		case 5:
			toks = append(toks, "solo", "solo")
		}
		c.docs[uint32(id)] = toks
	}
	muts := []mutation{
		{kind: wal.OpDelete, docID: 3},
		{kind: wal.OpDelete, docID: 7}, // "rare" now tombstone-only
		{kind: wal.OpUpdate, docID: 5, tokens: []string{word(0), word(1), "newterm"}},
		{kind: wal.OpAdd, docID: 64, tokens: []string{"newterm", word(2), word(2)}},
		{kind: wal.OpUpdate, docID: 12, tokens: []string{word(3), word(3), word(5)}},
	}
	for _, b := range backends[:2] {
		t.Run(b.name, func(t *testing.T) {
			c := c.clone()
			e, err := b.open(c.build(t), Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			// An empty-delta merge is a no-op.
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			if e.Stats().Merges != 0 {
				t.Fatalf("empty merge committed: %+v", e.Stats())
			}
			for _, m := range muts {
				apply(t, e, c, m)
			}
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			if lag := e.Stats().Lag(); lag != 0 {
				t.Fatalf("post-merge lag = %d", lag)
			}

			got, want := segment(e, 0), c.build(t)
			if _, ok := got.Lookup("rare"); ok {
				t.Error("fully tombstoned term 'rare' still in merged dictionary")
			}
			if _, ok := got.Lookup("newterm"); !ok {
				t.Error("delta-only term 'newterm' missing from merged dictionary")
			}
			checkSameIndex(t, got, want, "merged")

			e.refresh()
			if !e.snap.Load().clean {
				t.Error("a drained one-shard cluster's snapshot is not clean")
			}
			fresh, err := core.New(want, core.Config{Mode: core.CPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e, fresh, append(queryLog(7), []string{"newterm"}, []string{"solo", word(0)}))
		})
	}
}

// ---------------------------------------------------------------------------
// Merge/query interference: merge re-encoding occupies the shared device
// lanes, so a query arriving behind it queues.
// ---------------------------------------------------------------------------

func TestMergeInterferenceOnSharedDevice(t *testing.T) {
	const vocab = 16
	base := seedCorpus(51, 400, vocab)
	c := base.clone()
	e, err := New(c.build(t), Config{
		Engine: core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, m := range genScript(52, c.clone(), 120, vocab) {
		apply(t, e, c, m)
	}
	if err := e.MergeAt(0); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MergeDevice <= 0 {
		t.Errorf("merge billed no device time: %+v", st)
	}
	if st.MergeCPU <= 0 {
		t.Errorf("merge billed no CPU encode time: %+v", st)
	}
	// A query arriving while the merge's device work is still queued waits.
	r, err := e.Query(context.Background(), cluster.Request{Terms: []string{word(0), word(1)}, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if wait := r.Stats.Shards[0].Query.GPUWait; wait <= 0 {
		t.Errorf("query behind merge backlog saw no GPUWait (got %v)", wait)
	}
}

// ---------------------------------------------------------------------------
// One query path: Search is Query with only Terms set; the live layer
// decorates the request (pinned snapshot's overlay, Gen stamp) and the
// rest of it — arrival, ctx — reaches the serving engine.
// ---------------------------------------------------------------------------

func TestEngineQueryOnePath(t *testing.T) {
	testQueryOnePath(t, backends[:2], "Search equals Query")
}

func TestClusterQueryOnePath(t *testing.T) {
	testQueryOnePath(t, backends[2:], "caller overlay replaced")
}

// testQueryOnePath runs the one-path laws over backends; overlayCase
// names the first law's subtest in the calling test.
func testQueryOnePath(t *testing.T, rows []backend, overlayCase string) {
	const vocab = 16
	base := seedCorpus(53, 200, vocab)
	script := genScript(54, base.clone(), 60, vocab)
	live := func(t *testing.T, b backend) *Cluster {
		c := base.clone()
		e, err := b.open(c.build(t), Config{
			Engine: core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, m := range script {
			apply(t, e, c, m)
		}
		return e
	}

	t.Run(overlayCase, func(t *testing.T) {
		for _, b := range rows {
			t.Run(b.name, func(t *testing.T) {
				shim, direct := live(t, b), live(t, b)
				for qi, q := range queryLog(vocab) {
					want, err := shim.Search(q)
					if err != nil {
						t.Fatalf("q%d Search: %v", qi, err)
					}
					// A caller-supplied overlay is replaced by the snapshot's:
					// empty shard overlays would otherwise hide the unmerged
					// deltas.
					got, err := direct.Query(context.Background(), cluster.Request{Terms: q, Overlay: make(shardOverlays, b.shards)})
					if err != nil {
						t.Fatalf("q%d Query: %v", qi, err)
					}
					if got.Gen != want.Gen || !sameDocs(bitsOf(got.Docs), bitsOf(want.Docs)) ||
						!reflect.DeepEqual(got.Stats, want.Stats) {
						t.Fatalf("q%d %v diverges:\n got gen %d %+v\nwant gen %d %+v", qi, q, got.Gen, got.Result, want.Gen, want.Result)
					}
				}
			})
		}
	})

	t.Run("timed query under a cancelled ctx", func(t *testing.T) {
		for _, b := range rows {
			t.Run(b.name, func(t *testing.T) {
				// Cleanups run last in, first out: the leak law is checked
				// once live's Close has run.
				baseline := runtime.NumGoroutine()
				t.Cleanup(func() { settle(t, baseline, "close after a cancelled query") })
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, err := live(t, b).Query(ctx, cluster.Request{Terms: queryLog(vocab)[0], Timed: true})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error = %v, want context.Canceled", err)
				}
			})
		}
	})
}

// ---------------------------------------------------------------------------
// Mutation validation: bad requests are typed client errors and leave no
// trace in the delta.
// ---------------------------------------------------------------------------

func TestMutationValidation(t *testing.T) {
	c := seedCorpus(61, 10, 8)
	e, err := New(c.build(t), Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cases := []struct {
		name string
		call func() error
	}{
		{"add existing", func() error { return e.Add(3, []string{"x"}) }},
		{"add empty", func() error { return e.Add(100, nil) }},
		{"update empty", func() error { return e.Update(3, nil) }},
		{"delete missing", func() error { return e.Delete(100) }},
		{"op outside the WAL's three", func() error { return e.Apply(wal.Op(0), 100, []string{"x"}) }},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil || !IsInvalid(err) {
			t.Errorf("%s: err = %v, want invalid-mutation error", tc.name, err)
		}
	}
	if e.Gen() != 0 {
		t.Errorf("rejected mutations advanced gen to %d", e.Gen())
	}
	// Upsert via Update of a brand-new doc is legal; re-adding after a
	// delete is legal too.
	if err := e.Update(200, []string{"x", "y"}); err != nil {
		t.Errorf("upsert update: %v", err)
	}
	if err := e.Delete(200); err != nil {
		t.Errorf("delete upserted doc: %v", err)
	}
	if err := e.Add(200, []string{"z"}); err != nil {
		t.Errorf("re-add after delete: %v", err)
	}
}

// ---------------------------------------------------------------------------
// AutoMerge: crossing the threshold kicks off a background merge that
// eventually drains the delta.
// ---------------------------------------------------------------------------

func TestAutoMergeBackground(t *testing.T) {
	const vocab = 12
	base := seedCorpus(71, 50, vocab)
	c := base.clone()
	e, err := New(c.build(t), Config{
		Engine:         core.Config{Mode: core.CPUOnly},
		MergeThreshold: 10,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range genScript(72, c.clone(), 40, vocab) {
		apply(t, e, c, m)
	}
	// The background merge goroutine commits asynchronously; wait for it.
	eventually(t, "a background merge", func() bool { return e.Stats().Merges > 0 })
	checkOracle(t, e, c, queryLog(vocab), "post-automerge")

	e.Close() // drains any still-in-flight background merge
	if _, err := e.Search([]string{word(0)}); err != ErrClosed {
		t.Errorf("search after close: err = %v, want ErrClosed", err)
	}
	if err := e.Add(9_999, []string{"x"}); err != ErrClosed {
		t.Errorf("add after close: err = %v, want ErrClosed", err)
	}
	if err := e.Merge(); err != ErrClosed {
		t.Errorf("merge after close: err = %v, want ErrClosed", err)
	}
}

// ---------------------------------------------------------------------------
// Snapshot isolation under -race: concurrent Add/Delete/Search with
// background merges. Every result must be bit-identical to a quiesced
// engine holding exactly the first Result.Gen mutations — no torn reads,
// and each reader observes a monotonically advancing generation.
// ---------------------------------------------------------------------------

func TestConcurrentSnapshotIsolation(t *testing.T) {
	const vocab = 10
	base := seedCorpus(81, 40, vocab)
	script := genScript(82, base.clone(), 36, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}

	// The oracle's answers after each prefix of the script (CPU-only and
	// hybrid rank identically).
	expected := byGen(base, script, queries)

	c := base.clone()
	e, err := New(c.build(t), Config{
		Engine:         core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
		MergeThreshold: 8,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The writer replays the script, interleaving explicit merges with
	// the auto-merge goroutines.
	soak(t, e, 4, queries, expected, func() error {
		for i, m := range script {
			if err := e.Apply(m.kind, m.docID, m.tokens); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
			if i%12 == 11 {
				if err := e.Merge(); err != nil {
					return fmt.Errorf("merge at %d: %w", i, err)
				}
			}
		}
		return nil
	})

	// Final quiesce: the surviving engine collapses to the fully merged
	// corpus and stays exact.
	if err := e.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, m := range script {
		c.apply(m)
	}
	checkOracle(t, e, c, queries, "post-quiesce")
	e.Close()
}

// TestConcurrentCheckpointIngestReads is the -race satellite: writers,
// readers, and a checkpoint loop run concurrently; readers pinned to an
// epoch must never observe a torn view across a checkpoint's internal
// merge + persist, and the checkpointed directory must recover to a
// state consistent with some acknowledged prefix.
func TestConcurrentCheckpointIngestReads(t *testing.T) {
	const vocab = 10
	base := seedCorpus(371, 40, vocab)
	script := genScript(372, base.clone(), 30, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}

	expected := byGen(base, script, queries)

	dir := t.TempDir()
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir}
	e, err := Open(base.clone().build(t), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The writer runs the script with a checkpoint loop beside it.
	soak(t, e, 3, queries, expected, func() error {
		done, ckpt := make(chan struct{}), make(chan error, 1)
		go func() {
			for {
				select {
				case <-done:
					ckpt <- nil
					return
				default:
				}
				if err := e.Checkpoint(); err != nil {
					ckpt <- err
					return
				}
			}
		}()
		var err error
		for i, m := range script {
			if err = e.Apply(m.kind, m.docID, m.tokens); err != nil {
				err = fmt.Errorf("step %d: %w", i, err)
				break
			}
		}
		close(done)
		if ckptErr := <-ckpt; err == nil {
			err = ckptErr
		}
		return err
	})
	// One final checkpoint so the directory's watermark is meaningful,
	// then crash and recover: the acknowledged prefix must be complete.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	r, err := Open(base.clone().build(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Gen(); got != uint64(len(script)) {
		t.Fatalf("recovered gen %d, want %d", got, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	c := base.clone()
	for _, m := range script {
		c.apply(m)
	}
	checkOracle(t, r, c, queryLog(vocab), "post-checkpoint-race")
}

// TestCheckpointAcrossADocIDGap: one document added far past the last
// one costs the checkpoint the widths of the pages of zeros between
// them, a byte per 4 096 docIDs — not 4 bytes a docID — and the gap
// recovers: the document is found again after a restart.
func TestCheckpointAcrossADocIDGap(t *testing.T) {
	const far = 1 << 28
	seed := seedCorpus(391, 40, 10).build(t)
	dir := t.TempDir()
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir}
	e, err := Open(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Add(far, []string{"faraway", word(0)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint written (%v)", err)
	}
	limit := int64(len(serialized(t, seed))) + 1<<20
	for _, path := range ckpts {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes, the seed %d", filepath.Base(path), fi.Size(), limit-1<<20)
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes after one add at docID %d, want <= the seed's size + 1 MB (%d)",
				filepath.Base(path), fi.Size(), far, limit)
		}
	}
	r, err := Open(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Search([]string{"faraway"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 1 || res.Docs[0].DocID != far {
		t.Errorf("after recovery the far document's term finds %v, want docID %d", res.Docs, far)
	}
}

// TestAutoCheckpointCadence: CheckpointEvery triggers background
// checkpoints without explicit calls.
func TestAutoCheckpointCadence(t *testing.T) {
	const vocab = 10
	base := seedCorpus(381, 30, vocab)
	script := genScript(382, base.clone(), 24, vocab)
	dir := t.TempDir()
	cfg := Config{
		Engine: core.Config{Mode: core.CPUOnly},
		WALDir: dir, CheckpointEvery: 8,
	}
	c := base.clone()
	e, err := Open(base.clone().build(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range script {
		apply(t, e, c, m)
	}
	eventually(t, "an automatic checkpoint at cadence 8", func() bool { return e.Stats().WAL.Checkpoints > 0 })
	e.Close() // drains the background checkpoint goroutine
	r, err := Open(base.clone().build(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Gen(); got != uint64(len(script)) {
		t.Fatalf("recovered gen %d, want %d", got, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, r, c, queryLog(vocab), "auto-checkpoint")
}
