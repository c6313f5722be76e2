package ingest

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

// applyPrefix replays script[:k] into the engine and the logical corpus,
// asserting every mutation is acknowledged.
func applyPrefix(t testing.TB, e *Engine, c *logicalCorpus, script []mutation, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		apply(t, e, c, script[i])
	}
}

// applyUntilWedged replays the script until a mutation fails, returning
// the acknowledged count, the failing error, and the logical corpus
// holding exactly the acknowledged prefix.
func applyUntilWedged(t testing.TB, e *Engine, base *logicalCorpus, script []mutation) (int, error, *logicalCorpus) {
	t.Helper()
	c := base.clone()
	for i, m := range script {
		var err error
		switch m.kind {
		case wal.OpAdd:
			err = e.Add(m.docID, m.tokens)
		case wal.OpUpdate:
			err = e.Update(m.docID, m.tokens)
		case wal.OpDelete:
			err = e.Delete(m.docID)
		}
		if err != nil {
			return i, err, c
		}
		switch m.kind {
		case wal.OpDelete:
			delete(c.docs, m.docID)
		default:
			c.docs[m.docID] = m.tokens
		}
	}
	return len(script), nil, c
}

// checkIndexParity asserts the quiesced engine's main segment carries
// exactly the BM25 collection statistics of a fresh build — the "and
// BM25 stats" half of the recovery-parity invariant.
func checkIndexParity(t *testing.T, got, want *index.Index, tag string) {
	t.Helper()
	if got.NumDocs != want.NumDocs {
		t.Errorf("%s: NumDocs %d, want %d", tag, got.NumDocs, want.NumDocs)
	}
	if math.Float64bits(got.AvgDocLen) != math.Float64bits(want.AvgDocLen) {
		t.Errorf("%s: AvgDocLen %v, want %v (bit-exact)", tag, got.AvgDocLen, want.AvgDocLen)
	}
	if !reflect.DeepEqual(got.DocLens, want.DocLens) {
		t.Errorf("%s: DocLens diverge", tag)
	}
	if !reflect.DeepEqual(got.Terms(), want.Terms()) {
		t.Errorf("%s: term dictionaries diverge", tag)
	}
}

func TestOpenWithoutWALDirMatchesNew(t *testing.T) {
	const vocab = 10
	base := seedCorpus(301, 40, vocab)
	c := base.clone()
	e, err := Open(c.build(t, index.CodecEF), Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.store != nil {
		t.Fatalf("Open without WALDir attached a store")
	}
	for _, m := range genScript(302, c.clone(), 20, vocab) {
		apply(t, e, c, m)
	}
	if st := e.Stats(); st.WAL != nil {
		t.Fatalf("no-WAL engine exposes a wal stats block: %+v", st.WAL)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a no-WAL engine must be a no-op: %v", err)
	}
	if e.Wedged() != nil {
		t.Fatalf("no-WAL engine reports wedged")
	}
	checkLiveParity(t, e, c, queryLog(vocab), "no-wal")
}

// TestCrashRecoveryParity is the tentpole invariant over plain (fault
// free) crash points: for every crash point k in a mixed workload —
// including points straddling merges and checkpoints — recover →
// quiesce is byte-identical, results and BM25 stats, to the uncrashed
// engine quiesced over the acknowledged prefix.
func TestCrashRecoveryParity(t *testing.T) {
	const vocab = 14
	base := seedCorpus(311, 70, vocab)
	script := genScript(312, base.clone(), 40, vocab)
	for _, k := range []int{0, 1, 7, 18, 19, 25, len(script)} {
		t.Run(fmt.Sprintf("crash-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir}
			c := base.clone()
			e, err := Open(base.clone().build(t, index.CodecEF), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				apply(t, e, c, script[i])
				if i == 9 { // a committed merge mid-run
					if err := e.Merge(); err != nil {
						t.Fatal(err)
					}
				}
				if i == 17 { // a committed checkpoint mid-run
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			e.Crash()

			r, err := Open(base.clone().build(t, index.CodecEF), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Gen(); got != uint64(k) {
				t.Fatalf("recovered gen %d, want %d (every acknowledged write survives at sync-every-append)", got, k)
			}
			if err := r.Quiesce(); err != nil {
				t.Fatal(err)
			}
			checkLiveParity(t, r, c, queryLog(vocab), "recovered")
			checkIndexParity(t, r.Index(), c.build(t, index.CodecEF), "recovered")
		})
	}
}

// TestCrashPointFaultParityMatrix drives the seeded storage-fault matrix
// — torn writes and bit flips on the append path, short writes on the
// sync path — and proves the acknowledged-prefix invariant at each
// injected crash point: unacknowledged mutations vanish, acknowledged
// ones survive bit-exactly.
func TestCrashPointFaultParityMatrix(t *testing.T) {
	const vocab = 14
	base := seedCorpus(321, 70, vocab)
	script := genScript(322, base.clone(), 36, vocab)
	cases := []struct {
		name      string
		rule      fault.Rule
		syncEvery int
	}{
		{"torn-append-early", fault.Rule{Kind: fault.TornWrite, Rate: 1, After: 3, Until: 4}, 0},
		{"torn-append-late", fault.Rule{Kind: fault.TornWrite, Rate: 1, After: 30, Until: 31}, 0},
		{"bitflip-append", fault.Rule{Kind: fault.BitFlip, Rate: 1, After: 12, Until: 13}, 0},
		{"short-sync", fault.Rule{Kind: fault.ShortWrite, Rate: 1, After: 2, Until: 3}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{tc.rule}})
			cfg := Config{
				Engine: core.Config{Mode: core.CPUOnly},
				WALDir: dir, WALSyncEvery: tc.syncEvery, Fault: inj,
			}
			e, err := Open(base.clone().build(t, index.CodecEF), cfg)
			if err != nil {
				t.Fatal(err)
			}
			acked, wedgeErr, c := applyUntilWedged(t, e, base, script)
			if acked == len(script) {
				t.Fatalf("fault never fired: all %d mutations acknowledged", acked)
			}
			if !fault.IsStorageFault(wedgeErr) {
				t.Fatalf("wedging error %v is not a storage fault", wedgeErr)
			}
			if e.Wedged() == nil {
				t.Fatalf("engine does not report wedged after storage fault")
			}
			// Wedged engines reject mutations but keep serving reads.
			if _, err := e.Search([]string{word(0)}); err != nil {
				t.Fatalf("read on wedged engine: %v", err)
			}
			if err := e.Add(50_000, []string{"x"}); !fault.IsStorageFault(err) {
				t.Fatalf("wedged engine acknowledged a mutation (err=%v)", err)
			}
			e.Crash()

			// Recovery: fresh injector-free config (the fault already did its
			// damage on disk).
			rcfg := cfg
			rcfg.Fault = nil
			r, err := Open(base.clone().build(t, index.CodecEF), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			recovered := int(r.Gen())
			if tc.syncEvery == 0 {
				// Sync-every-append: the acknowledged prefix survives whole.
				if recovered != acked {
					t.Fatalf("recovered %d mutations, want the %d acknowledged", recovered, acked)
				}
			} else if recovered > acked {
				t.Fatalf("recovered %d mutations, more than the %d acknowledged", recovered, acked)
			}
			// Parity target: the corpus holding exactly the recovered prefix.
			ref := base.clone()
			for i := 0; i < recovered; i++ {
				m := script[i]
				switch m.kind {
				case wal.OpDelete:
					delete(ref.docs, m.docID)
				default:
					ref.docs[m.docID] = m.tokens
				}
			}
			_ = c
			if err := r.Quiesce(); err != nil {
				t.Fatal(err)
			}
			checkLiveParity(t, r, ref, queryLog(vocab), "recovered")
			checkIndexParity(t, r.Index(), ref.build(t, index.CodecEF), "recovered")
			st := r.Stats()
			if st.WAL == nil || st.WAL.TruncatedBytes == 0 {
				t.Errorf("recovery reported no truncated bytes after injected corruption: %+v", st.WAL)
			}
		})
	}
}

// TestCorruptCheckpointFallsBackToFullReplay injects the ckpt fault
// site: the checkpoint is silently corrupted on disk, and recovery must
// detect it, skip it, and still reach full parity by replaying the
// whole log over the seed.
func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) {
	const vocab = 12
	base := seedCorpus(331, 60, vocab)
	script := genScript(332, base.clone(), 30, vocab)
	dir := t.TempDir()
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir}
	c := base.clone()
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyPrefix(t, e, c, script, 20)
	// Arm the injector for the checkpoint only: a global BitFlip rule
	// would also wedge the append path, and the point here is a corrupt
	// checkpoint over a clean log.
	e.store.SetFault(fault.NewInjector(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Kind: fault.BitFlip, Rate: 1},
	}}))
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("silently corrupted checkpoint surfaced an error: %v", err)
	}
	e.store.SetFault(nil)
	applyPrefix(t, e, c, script[20:], 10)
	e.Crash()

	r, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.WAL == nil || st.WAL.SkippedCheckpoints != 1 {
		t.Fatalf("corrupt checkpoint not skipped: %+v", st.WAL)
	}
	if st.WAL.RecoveredRecords != int64(len(script)) {
		t.Fatalf("replayed %d records, want the full log of %d after checkpoint fallback",
			st.WAL.RecoveredRecords, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, c, queryLog(vocab), "ckpt-fallback")
}

// TestRecoveryNeverResurrectsTombstone pins the documented rule: a
// torn tail truncates cleanly and a tombstoned document stays dead —
// recovery must not "fix up" a delete whose successor record was lost.
func TestRecoveryNeverResurrectsTombstone(t *testing.T) {
	const victim = uint32(3)
	base := seedCorpus(341, 10, 8)
	dir := t.TempDir()
	// The 2nd append (seq 1) tears: the delete (seq 0) is durable, the
	// re-add of the same docID is torn away.
	inj := fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Kind: fault.TornWrite, Rate: 1, After: 1, Until: 2},
	}})
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir, Fault: inj}
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(victim, []string{"resurrect", "me"}); !fault.IsStorageFault(err) {
		t.Fatalf("torn re-add err = %v, want storage fault", err)
	}
	e.Crash()

	rcfg := cfg
	rcfg.Fault = nil
	r, err := Open(base.clone().build(t, index.CodecEF), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Gen(); got != 1 {
		t.Fatalf("recovered gen %d, want 1 (the delete only)", got)
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if l := r.Index().RecordedLen(victim); l != 0 {
		t.Fatalf("tombstoned doc %d resurrected with length %d", victim, l)
	}
	want := base.clone()
	delete(want.docs, victim)
	checkLiveParity(t, r, want, queryLog(8), "tombstone")
}

// TestCloseDurabilityBarrier pins the shutdown contract: even with
// syncing deferred (WALSyncEvery < 0), Close flushes and syncs every
// acknowledged mutation before returning — the SIGTERM barrier
// cmd/griffin-server relies on.
func TestCloseDurabilityBarrier(t *testing.T) {
	const vocab = 10
	base := seedCorpus(351, 40, vocab)
	script := genScript(352, base.clone(), 25, vocab)
	dir := t.TempDir()
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir, WALSyncEvery: -1}
	c := base.clone()
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyPrefix(t, e, c, script, len(script))
	if st := e.Stats(); st.WAL.Syncs != 0 {
		t.Fatalf("deferred-sync engine synced %d times before close", st.WAL.Syncs)
	}
	e.Close()

	r, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Gen(); got != uint64(len(script)) {
		t.Fatalf("recovered %d mutations after clean close, want all %d", got, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, c, queryLog(vocab), "post-close")
}

// TestMergeAbortCrashRecoversPreMergeView covers the merge-abort fault
// site interacting with recovery: a crash during (and after) aborted
// merges recovers to the pre-merge view — every acknowledged mutation,
// no half-merged segment.
func TestMergeAbortCrashRecoversPreMergeView(t *testing.T) {
	const vocab = 12
	base := seedCorpus(361, 50, vocab)
	script := genScript(362, base.clone(), 24, vocab)
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Kind: fault.EngineError, Rate: 1}, // every merge admission aborts
	}})
	cfg := Config{
		Engine: core.Config{Mode: core.CPUOnly},
		WALDir: dir, Fault: inj, MergeRetries: -1,
	}
	c := base.clone()
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyPrefix(t, e, c, script, len(script))
	if err := e.Merge(); !fault.IsEngineFault(err) {
		t.Fatalf("merge err = %v, want injected engine fault", err)
	}
	// A checkpoint rides the same merge path, so it aborts too — and must
	// leave no checkpoint file behind.
	if err := e.Checkpoint(); !fault.IsEngineFault(err) {
		t.Fatalf("checkpoint err = %v, want injected engine fault", err)
	}
	e.Crash()

	rcfg := cfg
	rcfg.Fault = nil
	r, err := Open(base.clone().build(t, index.CodecEF), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.WAL.CheckpointGen != 0 {
		t.Fatalf("aborted checkpoint left watermark %d on disk", st.WAL.CheckpointGen)
	}
	if got := r.Gen(); got != uint64(len(script)) {
		t.Fatalf("recovered %d mutations, want all %d acknowledged pre-merge", got, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, c, queryLog(vocab), "post-merge-abort")
	checkIndexParity(t, r.Index(), c.build(t, index.CodecEF), "post-merge-abort")
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

	// Per-generation expected results (same scheme as
	// TestConcurrentSnapshotIsolation).
	expected := make([]map[int][]docBits, len(script)+1)
	{
		c := base.clone()
		for g := 0; g <= len(script); g++ {
			if g > 0 {
				m := script[g-1]
				switch m.kind {
				case wal.OpDelete:
					delete(c.docs, m.docID)
				default:
					c.docs[m.docID] = m.tokens
				}
			}
			ref, err := core.New(c.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			expected[g] = make(map[int][]docBits, len(queries))
			for qi, q := range queries {
				r, err := ref.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				expected[g][qi] = bitsOf(r)
			}
		}
	}

	dir := t.TempDir()
	cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: dir}
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
		errs = make(chan string, 64)
	)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i, m := range script {
			var err error
			switch m.kind {
			case wal.OpAdd:
				err = e.Add(m.docID, m.tokens)
			case wal.OpUpdate:
				err = e.Update(m.docID, m.tokens)
			case wal.OpDelete:
				err = e.Delete(m.docID)
			}
			if err != nil {
				errs <- fmt.Sprintf("writer step %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				errs <- fmt.Sprintf("checkpoint: %v", err)
				return
			}
		}
	}()
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				for qi, q := range queries {
					r, err := e.Search(q)
					if err != nil {
						errs <- fmt.Sprintf("reader q%d: %v", qi, err)
						return
					}
					if r.Gen < lastGen || r.Gen > uint64(len(script)) {
						errs <- fmt.Sprintf("reader q%d: gen %d out of order (last %d)", qi, r.Gen, lastGen)
						return
					}
					lastGen = r.Gen
					if got, want := bitsOf(r.Result), expected[r.Gen][qi]; !sameDocs(got, want) {
						errs <- fmt.Sprintf("reader q%d gen %d: torn view across checkpoint", qi, r.Gen)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	// One final checkpoint so the directory's watermark is meaningful,
	// then crash and recover: the acknowledged prefix must be complete.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	r, err := Open(base.clone().build(t, index.CodecEF), cfg)
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
		switch m.kind {
		case wal.OpDelete:
			delete(c.docs, m.docID)
		default:
			c.docs[m.docID] = m.tokens
		}
	}
	checkLiveParity(t, r, c, queryLog(vocab), "post-checkpoint-race")
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
	e, err := Open(base.clone().build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyPrefix(t, e, c, script, len(script))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := e.Stats(); st.WAL.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint committed over %d mutations at cadence 8", len(script))
		}
		time.Sleep(time.Millisecond)
	}
	e.Close() // drains the background checkpoint goroutine
	r, err := Open(base.clone().build(t, index.CodecEF), cfg)
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
	checkLiveParity(t, r, c, queryLog(vocab), "auto-checkpoint")
}
