package ingest

import (
	"context"
	"sync/atomic"
	"time"

	"griffin/internal/core"
	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

// DefaultMergeRetries bounds how many times an aborted merge (injected
// fault on the merge path) is retried before the error surfaces.
const DefaultMergeRetries = 3

// Config parameterizes a live-ingestion engine.
type Config struct {
	// Engine is the serving-engine template. Every merged segment is
	// served by the previous engine's Successor, which keeps this
	// template and the device node, so the simulated device timelines,
	// submit hooks, and batching stage survive index swaps.
	Engine core.Config
	// Codec selects the compressed forms merged segments materialize
	// (CodecAuto = the seed's).
	Codec index.Codec
	// MergeThreshold is the delta size (records, live + tombstoned) at
	// which a merge becomes due (NeedsMerge / AutoMerge). 0 means merges
	// run only when explicitly requested.
	MergeThreshold int
	// AutoMerge launches a background merge goroutine whenever a
	// mutation pushes the delta past MergeThreshold (the serving-path
	// behaviour; deterministic load studies call MergeAt themselves).
	AutoMerge bool
	// Site is the fault-site base name; merge-path draws use
	// "<Site>.merge". Empty means "ingest".
	Site string
	// Fault injects merge-path faults (nil = none).
	Fault *fault.Injector
	// MergeRetries bounds abort→retry attempts per merge
	// (0 = DefaultMergeRetries; negative = no retries).
	MergeRetries int
	// WALDir enables durability (Open only): every accepted mutation is
	// appended to a write-ahead log in this directory before it is
	// acknowledged, and startup recovers checkpoint + WAL suffix. Empty
	// disables the WAL entirely — New and Open are then identical.
	WALDir string
	// WALSyncEvery is the fsync cadence in appends: 0 (unset) defaults
	// to 1 — every acknowledged mutation is durable — and negative syncs
	// only at checkpoints and shutdown (fast, loses the unsynced tail on
	// crash).
	WALSyncEvery int
	// CheckpointEvery persists a checkpoint after this many accepted
	// mutations (0 = only explicit Checkpoint calls). Checkpoints bound
	// recovery replay time; between them recovery replays the suffix.
	CheckpointEvery int
}

// segment is one immutable main-index incarnation plus the engine
// serving it. Snapshots hold references; the last release closes the
// engine (dropping its device-resident caches) — epoch-based
// retirement without a global pause.
type segment struct {
	eng  *core.Engine
	refs atomic.Int64
}

func (g *segment) acquire() { g.refs.Add(1) }

func (g *segment) release() {
	if g.refs.Add(-1) == 0 {
		g.eng.Close()
	}
}

// snapshot is an immutable (main segment, delta view) pair with the
// collection statistics of exactly that state — what one query pins for
// its whole execution. The snapshot holds one reference on its segment;
// queries hold references on the snapshot.
type snapshot struct {
	seg   *segment
	view  *View
	stats corpusStats
	refs  atomic.Int64
}

func newSnapshot(seg *segment, view *View, stats corpusStats) *snapshot {
	seg.acquire()
	s := &snapshot{seg: seg, view: view, stats: stats}
	s.refs.Store(1) // the "current" reference, dropped when swapped out
	return s
}

func (s *snapshot) release() {
	if s.refs.Add(-1) == 0 {
		s.seg.release()
	}
}

// Stats is the ingestion telemetry surface (/statz, freshness checks).
type Stats struct {
	// Gen is the writer generation (total mutations accepted);
	// MergedGen is the highest generation covered by a committed merge.
	Gen       uint64 `json:"gen"`
	MergedGen uint64 `json:"merged_gen"`
	// DeltaDocs / Tombstones describe the current delta (records not
	// yet merged). DeltaDocs counts all records, tombstones included —
	// the merge-lag / freshness signal.
	DeltaDocs  int `json:"delta_docs"`
	Tombstones int `json:"tombstones"`
	// Adds/Updates/Deletes count accepted mutations by kind.
	Adds    int64 `json:"adds"`
	Updates int64 `json:"updates"`
	Deletes int64 `json:"deletes"`
	// Merges counts committed merges; Aborts counts merge attempts
	// killed by injected faults (each either retried or surfaced);
	// MergedDocs is the total records folded into main segments.
	Merges     int64 `json:"merges"`
	Aborts     int64 `json:"aborts"`
	MergedDocs int64 `json:"merged_docs"`
	// MergeDevice / MergeCPU / MergeStall are the simulated time merges
	// spent re-encoding on the shared device timelines, encoding on the
	// CPU, and stalled by injected admission faults — the interference
	// the /statz freshness block surfaces.
	MergeDevice time.Duration `json:"merge_device_ns"`
	MergeCPU    time.Duration `json:"merge_cpu_ns"`
	MergeStall  time.Duration `json:"merge_stall_ns"`
	// WAL is the durability telemetry: appends, syncs, checkpoints, and
	// recovery counters. Nil when the engine runs without a write-ahead
	// log, so the /statz body stays byte-identical with durability off.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Lag returns the mutations not yet covered by a committed merge.
func (s Stats) Lag() uint64 { return s.Gen - s.MergedGen }

// Engine is the live-ingestion engine: a mutable delta over a read-only
// core.Engine, with snapshot-isolated reads and background merging.
type Engine struct {
	writer

	// d is the delta, guarded by the writer lock.
	d    *delta
	snap atomic.Pointer[snapshot]
	gen  atomic.Uint64 // mirror of d.gen for lock-free staleness checks
}

// New builds a live-ingestion engine over a seed index, in memory:
// cfg.WALDir is ignored. The seed may be empty
// (index.NewBuilder(...).Build() with no documents) to start from a blank
// corpus.
func New(ix *index.Index, cfg Config) (*Engine, error) {
	cfg.WALDir = ""
	return Open(ix, cfg)
}

// Close drains in-flight background merges and releases the engine's
// device state. Safe to call once; concurrent with queries. With a WAL
// the durability barrier comes first: every acknowledged mutation is
// synced to disk before background work is drained, so a SIGTERM that
// reaches Close never loses an acknowledged write.
func (e *Engine) Close() {
	e.store.Sync()
	e.stop()
	e.store.Close()
	// Drop the "current" reference; the snapshot (and its segment's
	// caches) die when the last pinned query finishes.
	if s := e.snap.Load(); s != nil {
		s.release()
	}
}

// acquire pins the current snapshot (whatever its generation). After
// Close the current snapshot may be fully drained — its segment's engine
// is gone — so a closed engine answers ErrClosed instead of spinning.
func (e *Engine) acquire() (*snapshot, error) {
	for {
		if e.closing.Load() {
			return nil, ErrClosed
		}
		s := e.snap.Load()
		if s.refs.Add(1) <= 1 {
			// Fully drained already (swapped out): undo and retry.
			s.refs.Add(-1)
			continue
		}
		if e.snap.Load() == s {
			return s, nil
		}
		s.release()
	}
}

// acquireFresh pins a snapshot at the writer's current generation,
// freezing the delta on demand (cheap when no mutations landed since
// the last freeze: the fast path is two atomic loads).
func (e *Engine) acquireFresh() (*snapshot, error) {
	for {
		s, err := e.acquire()
		if err != nil {
			return nil, err
		}
		if s.view.gen == e.gen.Load() {
			return s, nil
		}
		s.release()
		e.refresh()
	}
}

// refresh publishes a snapshot of the writer's current generation.
func (e *Engine) refresh() {
	e.mu.Lock()
	e.currentLocked()
	e.mu.Unlock()
}

// currentLocked returns the snapshot of the writer's current generation,
// publishing it first if the published one lags: the view and the
// statistics it is scored with are taken under one hold of the lock.
// Caller holds e.mu.
func (e *Engine) currentLocked() *snapshot {
	cur := e.snap.Load()
	if cur.view.gen != e.d.gen {
		e.snap.Store(newSnapshot(cur.seg, e.d.freeze(), e.stats))
		cur.release()
		cur = e.snap.Load()
	}
	return cur
}

// liveLen returns docID's length at the writer's current state, 0 when
// the document is not live. Caller holds e.mu.
func (e *Engine) liveLen(docID uint32) uint32 {
	if rec := e.d.docs[docID]; rec != nil {
		return rec.length
	}
	return e.Index().RecordedLen(docID)
}

// topLive is corpusStats.replace's descent: the collection size given
// that no document at or above below is live. The main segment's length
// table answers first and the delta is probed only where it says a
// document exists (a tombstone kills it); documents that exist only in
// the delta are one pass over it. Caller holds e.mu.
func (e *Engine) topLive(below int) int {
	n := topLive(e.Index().DocLens.Pages(), below, func(d int) bool {
		rec := e.d.docs[uint32(d)]
		return rec == nil || rec.live()
	})
	for id, rec := range e.d.docs {
		if rec.live() && int(id) < below {
			n = max(n, int(id)+1)
		}
	}
	return n
}

// applyLocked commits one mutation's record — validated by Apply, or
// acknowledged earlier and now replayed from the WAL — to the delta and
// the running statistics; old is the document's liveLen before it.
// Caller holds e.mu.
func (e *Engine) applyLocked(docID uint32, old uint32, rec *docRecord) {
	e.d.gen = rec.gen
	e.d.put(docID, rec)
	e.stats.replace(docID, old, rec.length, e.topLive)
	e.gen.Store(rec.gen)
}

// Add inserts a new document. It is an error to Add a docID that is
// currently live (use Update) or to add an empty document.
func (e *Engine) Add(docID uint32, tokens []string) error {
	return e.Apply(wal.OpAdd, docID, tokens)
}

// Update replaces a document wholesale (upsert: the document need not
// exist yet). The delta stores the complete new version; the
// main-segment version, if any, is shadowed until the next merge.
func (e *Engine) Update(docID uint32, tokens []string) error {
	return e.Apply(wal.OpUpdate, docID, tokens)
}

// Delete tombstones a live document.
func (e *Engine) Delete(docID uint32) error {
	return e.Apply(wal.OpDelete, docID, nil)
}

// Apply applies one mutation by op — what Add, Update and Delete call,
// and what a caller holding a wal.Op (a scripted workload, a decoded
// request) calls directly. A delete's tokens are ignored.
func (e *Engine) Apply(op wal.Op, docID uint32, tokens []string) error {
	e.mu.Lock()
	old := e.liveLen(docID)
	rec, err := e.admit(op, docID, tokens, old > 0, 0, e.d.gen+1)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.applyLocked(docID, old, rec)
	pending := len(e.d.docs)
	e.mu.Unlock()
	e.accepted(op, pending, 0, 0)
	return nil
}

// NeedsMerge reports whether the delta has reached the merge threshold.
func (e *Engine) NeedsMerge() bool {
	if e.cfg.MergeThreshold <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.d.docs) >= e.cfg.MergeThreshold
}

// Result is a completed query plus the delta generation it observed.
type Result struct {
	*core.Result
	// Gen is the snapshot's delta generation: results are bit-identical
	// to a quiesced engine holding exactly the first Gen mutations.
	Gen uint64
}

// Search is Query for a bare term list.
func (e *Engine) Search(terms []string) (*Result, error) {
	return e.Query(context.Background(), core.Request{Terms: terms})
}

// Query runs req against the freshest snapshot: it pins the snapshot,
// sets req.Overlay to that snapshot's delta overlay (replacing any the
// caller supplied), and delegates to the serving core engine. A timed
// request queues behind earlier queries *and background merges* on the
// shared device timeline.
func (e *Engine) Query(ctx context.Context, req core.Request) (*Result, error) {
	s, err := e.acquireFresh()
	if err != nil {
		return nil, err
	}
	defer s.release()
	req.Overlay = e.overlayFor(s)
	r, err := s.seg.eng.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &Result{Result: r, Gen: s.view.gen}, nil
}

// overlayFor builds the query's exec overlay: nil for an empty view, so
// a quiesced engine takes the frozen-corpus path byte for byte.
func (e *Engine) overlayFor(s *snapshot) *exec.Overlay {
	if s.view.Empty() {
		return nil
	}
	return newOverlay(s.view, s.seg.eng.Index(), statScorer(s.stats), nil)
}

// Engine returns the current serving engine (telemetry surface: node,
// caches, batching). The pointer is only safe for reads that tolerate a
// concurrent swap; queries must go through Query.
func (e *Engine) Engine() *core.Engine { return e.snap.Load().seg.eng }

// Index returns the current main segment (excluding the delta).
func (e *Engine) Index() *index.Index { return e.snap.Load().seg.eng.Index() }

// Gen returns the writer generation.
func (e *Engine) Gen() uint64 { return e.gen.Load() }

// Stats returns the ingestion telemetry.
func (e *Engine) Stats() Stats {
	st := e.counters()
	st.Gen = e.gen.Load()
	e.mu.Lock()
	st.DeltaDocs, st.Tombstones = e.d.pending()
	e.mu.Unlock()
	return st
}

// Progress returns the writer generation and the merge lag (Stats.Lag)
// without Stats' walk of the delta — what an acknowledged write and a
// health probe read.
func (e *Engine) Progress() (gen, lag uint64) {
	e.statsMu.Lock()
	merged := e.st.MergedGen
	e.statsMu.Unlock()
	gen = e.gen.Load()
	return gen, gen - merged
}
