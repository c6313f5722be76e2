package ingest

import (
	"fmt"

	"griffin/internal/index"
)

// OpenCluster builds a live-ingestion cluster with durability: one WAL
// shard log per index shard under cfg.WALDir, each mutation appended to
// its routed shard's log before the caller sees success, and startup
// recovery of the directory's state — the newest valid checkpoint plus
// a replay of the stitched per-shard WAL suffix past its watermark.
// With cfg.WALDir empty, OpenCluster is exactly NewCluster.
//
// The shard count recovers from the atomically committed manifest: a
// split (re-partition into more shards) survives a crash even when the
// caller's config still names the old count, because the manifest is
// committed before the routing swap. Growing past the manifest is
// honored; the directory is never shrunk.
func OpenCluster(seed *index.Index, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	c := &Cluster{serving: cfg.Cluster, splitWatermark: cfg.SplitWatermark, exact: true}
	c.writer.merge, c.writer.split, c.writer.checkpoint = c.MergeShard, c.rebuild, c.Checkpoint
	base, rec, err := c.open(seed, cfg.writerConfig(), cfg.Shards)
	if err != nil {
		return nil, err
	}
	// The directory's topology may have outgrown the config.
	n := max(cfg.Shards, rec.Shards)
	if err := c.store.Reshard(n); err != nil {
		c.store.Close()
		return nil, err
	}
	c.liveLens = base.DocLens.Edit()
	if c.t, err = c.newTopo(base, n); err != nil {
		c.store.Close()
		return nil, err
	}

	// Replay the acknowledged suffix. Records route by the *current*
	// topology — replay is logical, so the shard log a record was
	// durably written to need not match the shard its document now
	// lives in (split-watermark re-partitions recover consistently).
	c.mu.Lock()
	c.gen = rec.Watermark
	for _, r := range rec.Records {
		c.applyLocked(c.t, r.DocID, c.liveLen(r.DocID), newRecord(r.Op, r.Gen, r.Tokens))
	}
	c.genA.Store(c.gen)
	c.publishLocked()
	c.mu.Unlock()
	return c, nil
}

// Checkpoint persists the live global corpus — every shard's
// shadow-filtered main unioned with its delta, the exact rebuild
// input — with the current generation watermark, so the next recovery
// replays only the WAL suffix past it. The serving topology is
// untouched: checkpointing is a read-side fold, not a rebuild. No-op
// without a WAL.
func (c *Cluster) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	return c.serial(func() error {
		c.mu.Lock()
		wm := c.gen
		global, err := c.globalBuildLocked(c.t)
		c.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ingest: checkpoint build: %w", err)
		}
		// Every record at or below the watermark was appended (under c.mu)
		// before wm was read, so persist's sync makes the whole covered
		// range durable before the checkpoint claims it.
		return c.persist(global, wm)
	})
}

// Crash simulates kill -9 for crash-recovery studies: background work
// stops, every shard log's unsynced tail vanishes, engines release.
// Nothing is flushed. Reopen the directory with OpenCluster to recover.
func (c *Cluster) Crash() {
	c.stop()
	c.gate.Lock()
	c.mu.Lock()
	c.t.c.Close()
	c.mu.Unlock()
	c.gate.Unlock()
	c.store.Crash()
}
