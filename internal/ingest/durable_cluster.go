package ingest

import (
	"fmt"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/index"
)

// OpenCluster builds a live-ingestion cluster with durability: one WAL
// shard log per index shard under cfg.WALDir, each mutation appended to
// its routed shard's log before the caller sees success, and startup
// recovery of the directory's state — the newest valid checkpoint plus
// a replay of the stitched per-shard WAL suffix past its watermark.
// With cfg.WALDir empty the cluster runs purely in memory.
//
// The shard count recovers from the atomically committed manifest: a
// split (re-partition into more shards) survives a crash even when the
// caller's config still names the old count, because the manifest is
// committed before the routing swap. Growing past the manifest is
// honored; the directory is never shrunk.
//
// Recovery refuses to serve — the returned error wraps
// wal.ErrLineageMismatch — when the directory mixes files from two
// histories; torn or corrupt log tails are truncated and reported in
// Stats().WAL, never replayed.
func OpenCluster(seed *index.Index, cfg ClusterConfig) (*Cluster, error) {
	return openCluster(seed, cfg.Shards, cfg.SplitWatermark, cfg.Cluster, Config{
		Engine:         core.Config{CPU: cfg.Cluster.CPU},
		Fault:          cfg.Cluster.Fault,
		MergeThreshold: cfg.MergeThreshold, AutoMerge: cfg.AutoMerge,
		WALDir: cfg.WALDir, WALSyncEvery: cfg.WALSyncEvery, CheckpointEvery: cfg.CheckpointEvery,
	})
}

// openCluster is the one constructor: shards initial shards (0 = 1)
// served from the serving template, splitting at splitWatermark, with
// the write path configured by cfg (its CPU model prices merges, its
// injector covers merge admission, WAL and checkpoint).
func openCluster(seed *index.Index, shards, splitWatermark int, serving cluster.Config, cfg Config) (*Cluster, error) {
	c := &Cluster{serving: serving, splitWatermark: splitWatermark, exact: true}
	c.writer.merge, c.writer.split, c.writer.checkpoint = c.MergeShard, c.rebuild, c.Checkpoint
	shards = max(shards, 1)
	base, rec, err := c.open(seed, cfg, shards)
	if err != nil {
		return nil, err
	}
	// The directory's topology may have outgrown the config.
	n := max(shards, rec.Shards)
	if err := c.store.Reshard(n); err != nil {
		c.store.Close()
		return nil, err
	}
	c.liveLens = base.DocLens.Edit()
	if c.t, err = c.newTopo(base, n); err != nil {
		c.store.Close()
		return nil, err
	}

	// Replay the acknowledged suffix. Records were validated when first
	// acknowledged and the suffix is gen-contiguous, so they apply
	// unconditionally, routed by the *current* topology — replay is
	// logical, so the shard log a record was durably written to need not
	// match the shard its document now lives in (split-watermark
	// re-partitions recover consistently).
	c.st.MergedGen = rec.Watermark // the checkpoint segment covers it
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

// Checkpoint persists the live corpus with the generation watermark it
// covers, so the next recovery replays only the WAL suffix past it. At
// one shard it merges the shard (an ordinary merge) and persists the
// merged segment at MergedGen; at more it folds every shard's
// shadow-filtered main and delta into one global index — the exact
// rebuild input — at the current generation, leaving the serving
// topology untouched. No-op without a WAL.
func (c *Cluster) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	return c.serial(func() error {
		c.mu.Lock()
		one := c.t.n == 1
		c.mu.Unlock()
		if one {
			if err := c.mergeShardLocked(0, 0, false); err != nil {
				return fmt.Errorf("ingest: checkpoint merge: %w", err)
			}
			// mergeMu is held: the segment just merged is still the live
			// one, and it covers exactly the generations up to MergedGen.
			c.mu.Lock()
			ix := c.t.shards[0].ix
			c.mu.Unlock()
			c.statsMu.Lock()
			wm := c.st.MergedGen
			c.statsMu.Unlock()
			return c.persist(ix, wm)
		}
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
// Nothing is flushed. Reopen the directory to recover.
func (c *Cluster) Crash() {
	c.stop()
	c.closeServing()
	c.store.Crash()
}
