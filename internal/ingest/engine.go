package ingest

import (
	"context"
	"sync/atomic"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
)

// mergeRetries bounds how many times an aborted merge (injected fault on
// the merge path) is retried before the error surfaces.
const mergeRetries = 3

// site is the fault-site base name of the write path: merge-path draws
// use "ingest.merge" ("ingest.s<s>.merge" for a cluster shard), and the
// WAL's are named under it too (wal.Options.Site).
const site = "ingest"

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
	// Fault injects merge-path faults (nil = none).
	Fault *fault.Injector
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

// snapshot is a frozen delta view with the collection statistics of
// exactly that state — what one query reads for its whole execution. The
// main segment the view shadows is the serving shard's, which cannot
// change while the query holds the commit gate.
type snapshot struct {
	view  *View
	stats corpusStats
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
// core.Engine served as a one-shard cluster, with snapshot-isolated reads
// and background merging.
type Engine struct {
	writer

	// cl serves the main segment for the engine's whole life; a merge
	// commit swaps the shard's engine (ReplaceShard) under the commit gate.
	cl *cluster.Cluster

	// d is the delta and ix the main segment it shadows, both guarded by
	// the writer lock; ix changes only under the commit gate as well, so a
	// query holding the gate reads it without the lock.
	d    *delta
	ix   *index.Index
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

// Close drains in-flight background merges, waits out in-flight queries,
// and releases the engine's device state. Safe to call once; concurrent
// with queries. With a WAL the durability barrier comes first: every
// acknowledged mutation is synced to disk before background work is
// drained, so a SIGTERM that reaches Close never loses an acknowledged
// write.
func (e *Engine) Close() {
	e.store.Sync()
	e.stop()
	e.store.Close()
	e.closeServing()
}

// closeServing waits out in-flight queries at the commit gate and closes
// the serving cluster; queries arriving later answer ErrClosed.
func (e *Engine) closeServing() {
	e.gate.Lock()
	defer e.gate.Unlock()
	e.cl.Close()
}

// acquireFresh returns the snapshot of the writer's current generation
// with the commit gate held shared, freezing the delta on demand (cheap
// when no mutations landed since the last freeze: the fast path is two
// atomic loads). The caller must e.gate.RUnlock() when the query
// finishes.
func (e *Engine) acquireFresh() (*snapshot, error) {
	for {
		if e.closing.Load() {
			return nil, ErrClosed
		}
		if e.snap.Load().view.gen != e.gen.Load() {
			e.refresh()
		}
		e.gate.RLock()
		if e.closing.Load() {
			e.gate.RUnlock()
			return nil, ErrClosed
		}
		if s := e.snap.Load(); s.view.gen == e.gen.Load() {
			return s, nil
		}
		e.gate.RUnlock()
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
		cur = &snapshot{view: e.d.freeze(), stats: e.stats}
		e.snap.Store(cur)
	}
	return cur
}

// liveLen returns docID's length at the writer's current state, 0 when
// the document is not live. Caller holds e.mu.
func (e *Engine) liveLen(docID uint32) uint32 {
	if rec := e.d.docs[docID]; rec != nil {
		return rec.length
	}
	return e.ix.RecordedLen(docID)
}

// topLive is corpusStats.replace's descent: the collection size given
// that no document at or above below is live. The main segment's length
// table answers first and the delta is probed only where it says a
// document exists (a tombstone kills it); documents that exist only in
// the delta are one pass over it. Caller holds e.mu.
func (e *Engine) topLive(below int) int {
	n := topLive(e.ix.DocLens.Pages(), below, func(d int) bool {
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

// Search is Query for a bare term list.
func (e *Engine) Search(terms []string) (*ClusterResult, error) {
	return e.Query(context.Background(), cluster.Request{Terms: terms})
}

// Query runs req against the freshest snapshot: it holds the commit gate
// for the query's whole execution, sets req.Overlay to the snapshot's
// delta overlay (replacing any the caller supplied; none for an empty
// view, so a quiesced engine takes the frozen-corpus path byte for byte),
// and delegates to the serving cluster. A timed request queues behind
// earlier queries *and background merges* on the shared device timeline.
func (e *Engine) Query(ctx context.Context, req cluster.Request) (*ClusterResult, error) {
	s, err := e.acquireFresh()
	if err != nil {
		return nil, err
	}
	defer e.gate.RUnlock()
	req.Overlay = nil
	if !s.view.Empty() {
		req.Overlay = shardOverlays{newOverlay(s.view, e.ix, statScorer(s.stats), nil)}
	}
	res, err := e.cl.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Result: res, Gen: s.view.gen}, nil
}

// Cluster returns the serving cluster (telemetry surface: node, caches,
// batching); queries must go through Query.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Index returns the current main segment (excluding the delta).
func (e *Engine) Index() *index.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix
}

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
