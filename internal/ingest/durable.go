package ingest

import (
	"fmt"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/index"
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
	e := &Engine{d: newDelta()}
	e.writer.merge = func(int) error { return e.Merge() }
	e.writer.checkpoint = e.Checkpoint
	base, rec, err := e.open(ix, cfg, 1)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(base, cfg.Engine)
	if err != nil {
		e.store.Close()
		return nil, err
	}
	e.cl, e.ix = cluster.OfEngine(eng), base
	// Replay the suffix. Records were validated when first acknowledged
	// and the suffix is gen-contiguous, so they apply unconditionally.
	e.d.gen = rec.Watermark
	e.gen.Store(rec.Watermark)
	e.st.MergedGen = rec.Watermark // the checkpoint segment covers it
	e.snap.Store(&snapshot{view: e.d.freeze(), stats: e.stats})
	e.mu.Lock()
	for _, r := range rec.Records {
		e.applyLocked(r.DocID, e.liveLen(r.DocID), newRecord(r.Op, r.Gen, r.Tokens))
	}
	e.mu.Unlock()
	return e, nil
}

// Checkpoint folds the delta into the main segment (an ordinary merge)
// and persists the merged segment with its generation watermark, so the
// next recovery replays only the WAL suffix past it. No-op without a
// WAL.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	return e.serial(func() error {
		if err := e.mergeLocked(0, false); err != nil {
			return fmt.Errorf("ingest: checkpoint merge: %w", err)
		}
		// mergeMu is held: the segment just merged is still the live one,
		// and it covers exactly the generations up to MergedGen.
		e.statsMu.Lock()
		wm := e.st.MergedGen
		e.statsMu.Unlock()
		return e.persist(e.Index(), wm)
	})
}

// Crash simulates kill -9 for crash-recovery studies: background work
// stops, the WAL's unsynced tails vanish, files close. Nothing is
// flushed — that is the point. Reopen the directory with Open to
// recover.
func (e *Engine) Crash() {
	e.stop()
	e.store.Crash()
	e.closeServing()
}
