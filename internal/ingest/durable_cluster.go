package ingest

import (
	"fmt"

	"griffin/internal/index"
	"griffin/internal/wal"
	"griffin/internal/workload"
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
	if cfg.WALDir == "" {
		return NewCluster(seed, cfg)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	// Resolve the codec from the caller's seed, not the checkpoint (the
	// checkpoint round-trips through the EF-only serialized form; see
	// Open).
	if cfg.Codec == CodecAuto {
		cfg.Codec = detectCodec(seed)
	}
	site := cfg.Site
	if site == "" {
		site = "ingest"
	}
	store, rec, err := wal.Open(cfg.WALDir, wal.Options{
		Shards:    cfg.Shards,
		SyncEvery: resolveSyncEvery(cfg.WALSyncEvery),
		Site:      site,
		Fault:     cfg.Cluster.Fault,
	})
	if err != nil {
		return nil, err
	}
	n := cfg.Shards
	if rec.Shards > n {
		n = rec.Shards // the directory's topology outgrew the config
	}
	if err := store.Reshard(n); err != nil {
		store.Close()
		return nil, err
	}
	cfg.Shards = n

	seedIx := seed
	if rec.Checkpoint != nil {
		seedIx = rec.Checkpoint
	}
	c, err := NewCluster(seedIx, cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	c.store = store

	// Replay the acknowledged suffix. Records route by the *current*
	// topology — replay is logical, so the shard log a record was
	// durably written to need not match the shard its document now
	// lives in (split-watermark re-partitions recover consistently).
	c.mu.Lock()
	c.gen = rec.Watermark
	t := c.t
	for _, r := range rec.Records {
		s := workload.ShardOf(r.DocID, t.n)
		c.applyLocked(t, s, r.DocID, r.Tokens, r.Op, r.Gen)
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
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	if c.closing.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	wm := c.gen
	global, err := c.globalBuildLocked(c.t)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ingest: checkpoint build: %w", err)
	}
	// Every record at or below the watermark was appended (under c.mu)
	// before wm was read, so this sync makes the whole covered range
	// durable before the checkpoint claims it.
	if err := c.store.Sync(); err != nil {
		return err
	}
	if err := c.store.Checkpoint(global, wm); err != nil {
		return err
	}
	c.sinceCkpt.Store(0)
	return nil
}

// Crash simulates kill -9 for crash-recovery studies: background work
// stops, every shard log's unsynced tail vanishes, engines release.
// Nothing is flushed. Reopen the directory with OpenCluster to recover.
func (c *Cluster) Crash() {
	c.closing.Store(true)
	c.bg.Wait()
	c.gate.Lock()
	c.mu.Lock()
	c.t.c.Close()
	c.mu.Unlock()
	c.gate.Unlock()
	c.store.Crash()
}

// Wedged returns the storage fault that wedged any shard's WAL, or nil.
// A wedged cluster rejects mutations routed to the wedged shard (reads
// still serve) — the degraded-health condition /healthz surfaces.
func (c *Cluster) Wedged() error {
	if c.store == nil {
		return nil
	}
	return c.store.Wedged()
}
