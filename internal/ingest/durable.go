package ingest

import (
	"fmt"

	"griffin/internal/index"
	"griffin/internal/wal"
)

// Open builds a live-ingestion engine with durability: every accepted
// mutation is appended to a write-ahead log under cfg.WALDir before the
// caller sees success, and startup recovers the directory's state — the
// newest valid checkpoint plus a replay of the WAL suffix past its
// watermark. With cfg.WALDir empty, Open is exactly New: the in-memory
// engine, byte for byte.
//
// ix is the seed segment for a fresh directory (and the recovery base
// when no usable checkpoint exists). Recovery refuses to serve — the
// returned error wraps wal.ErrLineageMismatch — when the directory
// mixes files from two histories; torn or corrupt log tails are
// truncated and reported in Stats().WAL, never replayed.
func Open(ix *index.Index, cfg Config) (*Engine, error) {
	if cfg.WALDir == "" {
		return New(ix, cfg)
	}
	// Resolve the codec from the caller's seed, not the checkpoint: a
	// checkpoint round-trips through the EF-only serialized form, and
	// auto-detection against it would silently drop a CodecBoth
	// configuration after the first recovery.
	if cfg.Codec == CodecAuto {
		cfg.Codec = detectCodec(ix)
	}
	site := cfg.Site
	if site == "" {
		site = "ingest"
	}
	store, rec, err := wal.Open(cfg.WALDir, wal.Options{
		Shards:    1,
		SyncEvery: resolveSyncEvery(cfg.WALSyncEvery),
		Site:      site,
		Fault:     cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	seed := ix
	if rec.Checkpoint != nil {
		seed = rec.Checkpoint
	}
	e, err := New(seed, cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	e.store = store

	// Replay the suffix. Records were validated when first acknowledged
	// and the suffix is gen-contiguous, so they apply unconditionally —
	// in particular a tombstone stays a tombstone; recovery never
	// resurrects a deleted document by "fixing up" its record.
	e.mu.Lock()
	e.d.gen = rec.Watermark
	for _, r := range rec.Records {
		e.applyRecordLocked(r)
	}
	e.gen.Store(e.d.gen)
	e.mu.Unlock()
	e.statsMu.Lock()
	e.st.MergedGen = rec.Watermark // the checkpoint segment covers it
	e.statsMu.Unlock()
	return e, nil
}

// resolveSyncEvery maps the config knob to the store's policy: 0 (unset)
// means the durable default of syncing every append; negative means sync
// only at checkpoints, explicit syncs, and close.
func resolveSyncEvery(v int) int {
	switch {
	case v == 0:
		return 1
	case v < 0:
		return 0
	default:
		return v
	}
}

// applyRecordLocked replays one WAL record into the delta. Caller holds
// e.mu. Replay bypasses Apply's validation on purpose: the record was
// validated when acknowledged, and re-validating against a partially
// rebuilt state would reject legitimate history.
func (e *Engine) applyRecordLocked(r wal.Record) {
	e.d.gen = r.Gen
	rec := &docRecord{gen: r.Gen}
	if r.Op == wal.OpDelete {
		rec.deleted = true
	} else {
		rec.tf, rec.length = tokenCounts(r.Tokens)
	}
	e.d.put(r.DocID, rec)
}

// Checkpoint folds the delta into the main segment (an ordinary merge)
// and persists the merged segment with its generation watermark, so the
// next recovery replays only the WAL suffix past it. No-op without a
// WAL.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	if e.closing.Load() {
		return ErrClosed
	}
	if err := e.mergeLocked(0, false); err != nil {
		return fmt.Errorf("ingest: checkpoint merge: %w", err)
	}
	// Unsynced appends must be durable before the checkpoint claims to
	// cover their generations (the watermark equals the merged gen, which
	// includes every acknowledged-but-unsynced record folded above).
	if err := e.store.Sync(); err != nil {
		return err
	}
	e.mu.Lock()
	cur := e.snap.Load()
	cur.refs.Add(1)
	e.mu.Unlock()
	defer cur.release()
	e.statsMu.Lock()
	wm := e.st.MergedGen
	e.statsMu.Unlock()
	if err := e.store.Checkpoint(cur.seg.st.ix, wm); err != nil {
		return err
	}
	e.sinceCkpt.Store(0)
	return nil
}

// Crash simulates kill -9 for crash-recovery studies: background work
// stops, the WAL's unsynced tails vanish, files close. Nothing is
// flushed — that is the point. Reopen the directory with Open to
// recover.
func (e *Engine) Crash() {
	e.closing.Store(true)
	e.bg.Wait()
	e.store.Crash()
	if s := e.snap.Load(); s != nil {
		s.release()
	}
}

// Wedged returns the storage fault that wedged the WAL, or nil. A
// wedged engine rejects every further mutation (reads still serve) —
// the degraded-health condition /healthz surfaces.
func (e *Engine) Wedged() error {
	if e.store == nil {
		return nil
	}
	return e.store.Wedged()
}
