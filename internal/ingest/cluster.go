package ingest

import (
	"context"
	"fmt"
	"sync/atomic"

	"griffin/internal/cluster"
	"griffin/internal/exec"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// ClusterConfig parameterizes a live-ingestion cluster: per-shard deltas
// over the document-partitioned serving layer, with globally consistent
// collection statistics stamped on every query — the running analogue of
// workload.PartitionIndex's GlobalN scheme.
type ClusterConfig struct {
	// Shards is the initial shard count (0 = 1). Splits grow it.
	Shards int
	// Cluster is the serving-layer template (replicas, routing, engine
	// template, fault injector, ...). Its fault injector also covers the
	// write path: shard s's merge admission draws at "ingest.s<s>.merge"
	// ("ingest.merge" at one shard), and the WAL's under "ingest".
	Cluster cluster.Config
	// MergeThreshold is the per-shard delta size at which a background
	// merge becomes due (0 = explicit merges only).
	MergeThreshold int
	// AutoMerge launches background shard merges past MergeThreshold.
	AutoMerge bool
	// SplitWatermark is the per-shard live-document count that triggers
	// a background split — a full rebuild into one more shard, with
	// routing (workload.ShardOf over the new count) updated mid-flight.
	// 0 disables splits.
	SplitWatermark int
	// WALDir enables durability: every accepted mutation appends to a
	// per-shard write-ahead log under this directory before the caller
	// sees success, and OpenCluster recovers the directory's state.
	// Empty runs the cluster purely in memory.
	WALDir string
	// WALSyncEvery is the per-shard appends-per-fsync policy: 0 (unset)
	// syncs every append — the durable default — negative defers syncing
	// to checkpoints and close, n > 0 syncs every n appends.
	WALSyncEvery int
	// CheckpointEvery persists a background checkpoint after that many
	// accepted mutations (0 = explicit Checkpoint calls only). Requires
	// WALDir.
	CheckpointEvery int
}

// shardState is one shard's writer-side state: its current main segment
// and the delta absorbing the shard's mutations. Guarded by Cluster.mu.
type shardState struct {
	ix   *index.Index
	d    *delta
	live int // live documents routed to this shard (watermark signal)
}

// topo is one topology incarnation: a shard count, the serving cluster
// over it, and the per-shard writer state. A split replaces the whole
// topo; per-shard merges mutate shard segments in place (under the
// commit gate, so no query observes the swap mid-flight).
type topo struct {
	n      int
	c      *cluster.Cluster
	shards []*shardState
}

// clusterSnap is the immutable state one query executes against: the
// topology, each shard's (main segment, frozen delta view) pair, and the
// global live collection statistics at one stamp. stamp advances on
// every mutation and every merge/rebuild commit, so snapshot freshness
// is one atomic compare.
type clusterSnap struct {
	topo  *topo
	mains []*index.Index
	views []*View
	gen   uint64
	stamp uint64
	stats corpusStats
	// clean marks a fully quiesced, exactly stamped corpus: every delta
	// empty and every shard index carrying exact global statistics
	// (seed or post-rebuild state). Clean queries take the pure
	// frozen-corpus path — byte-identical to a fresh cluster build.
	clean bool
}

// Cluster is the live-ingestion layer over the sharded serving cluster —
// at one shard, the single-node live engine: mutations route to
// per-shard deltas by workload.ShardOf, queries pin a cluster-wide
// snapshot with globally consistent statistics, background merges fold
// shard deltas into re-encoded shard segments, and a shard-size
// watermark triggers splits that re-partition the corpus into more
// shards with routing updated mid-flight.
type Cluster struct {
	writer
	// serving is the serving-layer template every topology is built from;
	// splitWatermark is ClusterConfig.SplitWatermark.
	serving        cluster.Config
	splitWatermark int

	// The rest is guarded by the writer lock.
	t *topo
	// liveLens is the authoritative live document-length table (a zero
	// or missing entry ⇔ the document is not live), of which the writer's
	// running statistics are the exact index.Builder aggregates. It
	// starts as the seed's table and a merge snapshots it into the
	// merged segment: a mutation copies the page it writes to if a
	// segment still shares it, nothing copies the table.
	liveLens *index.LenEditor
	gen      uint64
	// exact marks shard indexes whose global stamps (GlobalN, NumDocs,
	// DocLens, AvgDocLen) are exact for the live corpus — true from the
	// seed, a rebuild or a merge at one shard, false after a best-effort
	// merge of one shard of several.
	exact bool
	stamp uint64

	stampA atomic.Uint64
	genA   atomic.Uint64
	snap   atomic.Pointer[clusterSnap]

	// rebuilds and splits are ClusterStats' own counters (statsMu).
	rebuilds, splits int64
}

// ClusterStats is the ingestion telemetry surface: Stats, with
// DeltaDocs / Tombstones totalled across shards, plus the topology.
// MergedGen is the highest generation any merge has covered; other
// shards may still hold older pending records, which is why Lag counts
// those instead.
type ClusterStats struct {
	Stats
	// Shards is the current shard count (splits grow it).
	Shards   int `json:"shards"`
	LiveDocs int `json:"live_docs"`
	// Rebuilds counts full re-partitions (Quiesce and splits); Splits
	// counts the ones that grew the shard count.
	Rebuilds int64 `json:"rebuilds"`
	Splits   int64 `json:"splits"`
	// ShardDocs / ShardDelta break live and pending documents down per
	// shard (the split watermark's view).
	ShardDocs  []int `json:"shard_docs"`
	ShardDelta []int `json:"shard_delta"`
}

// Lag returns the records pending in shard deltas, not yet folded into
// segments — the freshness signal (a document mutated twice counts
// once).
func (s ClusterStats) Lag() uint64 { return uint64(s.DeltaDocs) }

// newTopo partitions a global index into n shards and builds the serving
// cluster plus fresh per-shard writer state over it. One shard serves
// the index it is given — partitioning it into one shard would copy it —
// and its live count is the running statistics' rather than a pass over
// the length table. Caller holds c.mu or owns c alone.
func (c *Cluster) newTopo(global *index.Index, n int) (*topo, error) {
	ixs := []*index.Index{global}
	if n > 1 {
		var err error
		if ixs, err = workload.PartitionIndex(global, n); err != nil {
			return nil, err
		}
	}
	cc, err := cluster.New(ixs, c.serving)
	if err != nil {
		return nil, err
	}
	t := &topo{n: n, c: cc, shards: make([]*shardState, n)}
	for s, ix := range ixs {
		t.shards[s] = &shardState{ix: ix, d: newDelta()}
	}
	if n == 1 {
		t.shards[0].live = c.stats.lenCnt
		return t, nil
	}
	var buf [1 << index.DocLenShift]uint32
	lens := c.liveLens.Table()
	for p := range lens.NumPages() {
		for i, l := range lensPage(lens, p, &buf) {
			if l > 0 {
				t.shards[workload.ShardOf(uint32(p<<index.DocLenShift+i), n)].live++
			}
		}
	}
	return t, nil
}

// Close drains background merges/splits, waits out in-flight queries,
// and releases every shard engine's device state. With a WAL attached,
// Close is a durability barrier: every acknowledged mutation is synced
// to disk before Close returns, so a clean shutdown loses nothing even
// under a deferred-sync policy.
func (c *Cluster) Close() {
	c.store.Sync() // flush before draining; store.Close finishes the job
	c.stop()
	c.closeServing()
	c.store.Close()
}

// closeServing waits out in-flight queries at the commit gate and closes
// the serving cluster; queries arriving later answer ErrClosed.
func (c *Cluster) closeServing() {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.c.Close()
}

// Cluster returns the current serving cluster (telemetry surface). The
// pointer is only safe for reads that tolerate a concurrent rebuild;
// queries must go through Query.
func (c *Cluster) Cluster() *cluster.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.c
}

// Add inserts a new document. It is an error to Add a docID that is
// currently live (use Update) or to add an empty document.
func (c *Cluster) Add(docID uint32, tokens []string) error {
	return c.Apply(wal.OpAdd, docID, tokens)
}

// Update replaces a document wholesale (upsert: the document need not
// exist yet). The delta stores the complete new version; the
// main-segment version, if any, is shadowed until the next merge.
func (c *Cluster) Update(docID uint32, tokens []string) error {
	return c.Apply(wal.OpUpdate, docID, tokens)
}

// Delete tombstones a live document.
func (c *Cluster) Delete(docID uint32) error {
	return c.Apply(wal.OpDelete, docID, nil)
}

// Apply applies one mutation by op — what Add, Update and Delete call,
// and what a caller holding a wal.Op (a scripted workload, a decoded
// request) calls directly. A delete's tokens are ignored.
func (c *Cluster) Apply(op wal.Op, docID uint32, tokens []string) error {
	c.mu.Lock()
	t := c.t
	s := workload.ShardOf(docID, t.n)
	old := c.liveLen(docID)
	rec, err := c.admit(op, docID, tokens, old > 0, s, c.gen+1)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	sh := c.applyLocked(t, docID, old, rec)
	c.stamp++
	c.stampA.Store(c.stamp)
	c.genA.Store(c.gen)
	pending := len(sh.d.docs)
	splitTo := 0
	if c.splitWatermark > 0 && sh.live > c.splitWatermark {
		splitTo = t.n + 1
	}
	c.mu.Unlock()
	c.accepted(op, pending, s, splitTo)
	return nil
}

// liveLen returns docID's length at the writer's current state, 0 when
// the document is not live. Caller holds c.mu.
func (c *Cluster) liveLen(docID uint32) uint32 { return c.liveLens.At(docID) }

// applyLocked commits one mutation's record — validated by Apply, or
// acknowledged earlier and now replayed from the WAL — to the delta of
// the shard its document routes to in t, the live length table and the
// running statistics; old is the document's liveLen before it. Caller
// holds c.mu.
func (c *Cluster) applyLocked(t *topo, docID uint32, old uint32, rec *docRecord) *shardState {
	sh := t.shards[workload.ShardOf(docID, t.n)]
	c.gen, sh.d.gen = rec.gen, rec.gen
	sh.d.put(docID, rec)

	if int(docID) >= c.liveLens.Len() {
		c.liveLens.Resize(int(docID) + 1)
	}
	c.liveLens.Set(docID, rec.length)
	switch {
	case old > 0 && rec.deleted:
		sh.live--
	case old == 0 && !rec.deleted:
		sh.live++
	}
	c.stats.replace(docID, old, rec.length, c.topLive)
	return sh
}

// topLive is corpusStats.replace's descent over the live length table,
// which already holds the mutation just applied. Caller holds c.mu.
func (c *Cluster) topLive(below int) int { return topLive(c.liveLens.Table(), below) }

// publishLocked freezes the current per-shard views and publishes the
// snapshot queries pin. Caller holds c.mu. Views of untouched shards are
// reused from the previous snapshot (freeze slices are immutable).
func (c *Cluster) publishLocked() {
	prev := c.snap.Load()
	t := c.t
	views := make([]*View, t.n)
	mains := make([]*index.Index, t.n)
	allEmpty := true
	for i, sh := range t.shards {
		mains[i] = sh.ix
		var v *View
		if prev != nil && prev.topo == t && prev.mains[i] == sh.ix && prev.views[i].gen == sh.d.gen {
			v = prev.views[i]
		} else {
			v = sh.d.freeze()
		}
		views[i] = v
		if !v.Empty() {
			allEmpty = false
		}
	}
	c.stamp++
	c.stampA.Store(c.stamp)
	c.snap.Store(&clusterSnap{
		topo: t, mains: mains, views: views,
		gen: c.gen, stamp: c.stamp, stats: c.stats,
		clean: c.exact && allEmpty,
	})
}

func (c *Cluster) refresh() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.snap.Load(); s != nil && s.stamp == c.stamp {
		return
	}
	c.publishLocked()
}

// acquireFresh returns the freshest snapshot with the commit gate held
// shared; the caller must c.gate.RUnlock() when the query finishes.
func (c *Cluster) acquireFresh() (*clusterSnap, error) {
	for {
		if c.closing.Load() {
			return nil, ErrClosed
		}
		if c.snap.Load().stamp != c.stampA.Load() {
			c.refresh()
		}
		c.gate.RLock()
		if c.closing.Load() {
			c.gate.RUnlock()
			return nil, ErrClosed
		}
		s := c.snap.Load()
		if s.stamp == c.stampA.Load() {
			return s, nil
		}
		c.gate.RUnlock()
	}
}

// ClusterResult is a completed live query plus the writer generation its
// snapshot observed: results are bit-identical to a quiesced cluster
// holding exactly the first Gen mutations.
type ClusterResult struct {
	*cluster.Result
	Gen uint64
}

// Search is Query for a bare term list.
func (c *Cluster) Search(terms []string) (*ClusterResult, error) {
	return c.Query(context.Background(), cluster.Request{Terms: terms})
}

// Query scatter-gathers req against the freshest cluster snapshot: it
// holds the commit gate for the query's whole execution, sets
// req.Overlay to that snapshot's per-shard delta overlays (replacing any
// the caller supplied; none on a clean snapshot, so a quiesced cluster
// takes the frozen-corpus path byte for byte), and delegates to the
// serving cluster. A timed request queues behind earlier queries *and
// background merges* on the shared device timelines.
func (c *Cluster) Query(ctx context.Context, req cluster.Request) (*ClusterResult, error) {
	s, err := c.acquireFresh()
	if err != nil {
		return nil, err
	}
	defer c.gate.RUnlock()

	req.Overlay = nil
	if !s.clean {
		req.Overlay = c.overlayFor(s, req.Terms)
	}
	res, err := s.topo.c.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Result: res, Gen: s.gen}, nil
}

// shardOverlays is the per-query cluster.Overlay: one exec overlay per
// shard, sharing the query's global document frequencies and scorer.
type shardOverlays []*exec.Overlay

func (o shardOverlays) Shard(s int) *exec.Overlay { return o[s] }

// overlayFor resolves the query's global live document frequencies —
// df(t) = Σ over shards of (shard main df − shadowed + shard delta df),
// the running analogue of the GlobalN stamp — and builds each shard's
// overlay around them. Shards with pending mutations get the full delta
// overlay; quiet shards get a scorer-only overlay, because their stamped
// GlobalN/NumDocs go stale the moment any other shard mutates. One shard's
// own live frequencies are the global ones: its overlay resolves them.
func (c *Cluster) overlayFor(s *clusterSnap, terms []string) cluster.Overlay {
	if len(s.views) == 1 && !s.views[0].Empty() {
		return shardOverlays{newOverlay(s.views[0], s.mains[0], statScorer(s.stats), nil)}
	}
	df := make(map[string]int, len(terms))
	for _, t := range terms {
		total := 0
		for i := range s.views {
			mainN := 0
			if pl, ok := s.mains[i].Lookup(t); ok {
				mainN = pl.N
			}
			if s.views[i].Empty() {
				total += mainN
			} else {
				n, _ := s.views[i].liveDF(t, mainN, s.mains[i])
				total += n
			}
		}
		df[t] = total
	}
	sc := statScorer(s.stats)
	ovs := make(shardOverlays, len(s.views))
	for i := range s.views {
		if s.views[i].Empty() {
			ovs[i] = &exec.Overlay{Scorer: &shardScorer{main: s.mains[i], scorer: sc, df: df}}
		} else {
			ovs[i] = newOverlay(s.views[i], s.mains[i], sc, df)
		}
	}
	return ovs
}

// shardScorer scores a quiet shard's candidates with rank.Scorer's exact
// float discipline but global *live* statistics: the snapshot's scorer
// (live NumDocs/AvgDocLen) and the query's resolved global document
// frequencies in place of the stamped-at-build GlobalN.
type shardScorer struct {
	main   *index.Index
	scorer *rank.Scorer
	df     map[string]int
}

func (s *shardScorer) ScoreCandidates(lists []*index.PostingList, candidates []uint32) ([]kernels.ScoredDoc, hwmodel.CPUWork) {
	var work hwmodel.CPUWork
	out := make([]kernels.ScoredDoc, len(candidates))
	for i, d := range candidates {
		var score float64
		for _, pl := range lists {
			tf, _, ok := pl.FreqForDoc(d)
			if ok {
				score += s.scorer.ScoreTerm(s.df[pl.Term], tf, s.main.DocLen(d))
			}
		}
		work.ScoredDocs += int64(len(lists))
		out[i] = kernels.ScoredDoc{DocID: d, Score: float32(score)}
	}
	return out, work
}

// Quiesce rebuilds the cluster over the live corpus at the current shard
// count: every delta folds into freshly partitioned shard segments with
// exact global stamps, so subsequent queries take the pure frozen-corpus
// path — byte-identical to a cluster (at one shard, an engine) freshly
// built over the same logical corpus.
func (c *Cluster) Quiesce() error { return c.rebuild(0) }

// Split rebuilds into one more shard than the current topology — the
// explicit form of the watermark-triggered split.
func (c *Cluster) Split() error {
	c.mu.Lock()
	n := c.t.n + 1
	c.mu.Unlock()
	return c.rebuild(n)
}

// rebuild re-partitions the live corpus into n shards (0 = keep the
// current count) and swaps the whole topology: a new serving cluster
// with fresh deltas, routing (ShardOf over n) updated for queries and
// mutations alike. Writes block for the duration; reads keep serving the
// pinned snapshot until the commit gate swaps them to the new topology.
func (c *Cluster) rebuild(n int) error { return c.serial(func() error { return c.rebuildLocked(n) }) }

func (c *Cluster) rebuildLocked(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	grow := n > t.n
	if n <= 0 {
		n = t.n
	}

	global, err := c.globalBuildLocked(t)
	if err != nil {
		return err
	}
	t2, err := c.newTopo(global, n)
	if err != nil {
		return err
	}
	// Grow the WAL before the routing swap: the manifest commits the new
	// shard count first, so a crash between the two recovers with every
	// already-written record still reachable (grow-only, nil-safe).
	if err := c.store.Reshard(n); err != nil {
		t2.c.Close()
		return err
	}

	c.gate.Lock()
	c.t = t2
	c.exact = true
	c.publishLocked()
	c.gate.Unlock()
	t.c.Close() // no queries in flight past the gate: retire the old engines

	c.statsMu.Lock()
	c.st.MergedGen = c.gen // every delta is folded in
	c.rebuilds++
	if grow {
		c.splits++
	}
	c.statsMu.Unlock()
	return nil
}

// globalBuildLocked folds every shard's (shadow-filtered main ∪ delta)
// into one global index over the live corpus — the exact build a fresh
// ingestion-free corpus would produce. Caller holds c.mu.
func (c *Cluster) globalBuildLocked(t *topo) (*index.Index, error) {
	type slice struct {
		ids   []uint32
		freqs []uint32
	}
	terms := make(map[string][]slice)
	for _, sh := range t.shards {
		v := sh.d.freeze()
		seen := make(map[string]bool)
		for _, term := range sh.ix.Terms() {
			pl, _ := sh.ix.Lookup(term)
			ids, freqs := pl.DecodeFrom(0)
			ids, freqs = mergePostings(ids, freqs, v, term)
			seen[term] = true
			if len(ids) > 0 {
				terms[term] = append(terms[term], slice{ids, freqs})
			}
		}
		for term := range v.postings {
			if seen[term] {
				continue
			}
			ids, freqs := mergePostings(nil, nil, v, term)
			if len(ids) > 0 {
				terms[term] = append(terms[term], slice{ids, freqs})
			}
		}
	}

	b := index.NewBuilder(index.CodecEF)
	for term, parts := range terms {
		// Shard slices are ascending and docID-disjoint (modulo routing):
		// a k-way min-merge restores the global ascending order.
		idx := make([]int, len(parts))
		ids := make([]uint32, 0)
		freqs := make([]uint32, 0)
		for {
			best := -1
			for p := range parts {
				if idx[p] >= len(parts[p].ids) {
					continue
				}
				if best < 0 || parts[p].ids[idx[p]] < parts[best].ids[idx[best]] {
					best = p
				}
			}
			if best < 0 {
				break
			}
			ids = append(ids, parts[best].ids[idx[best]])
			freqs = append(freqs, parts[best].freqs[idx[best]])
			idx[best]++
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			return nil, fmt.Errorf("ingest: rebuild term %q: %w", term, err)
		}
	}
	for d := 0; d < c.stats.numDocs; d++ {
		if l := c.liveLens.At(uint32(d)); l > 0 {
			b.SetDocLen(uint32(d), l)
		}
	}
	return b.Build()
}

// Stats returns the ingestion telemetry.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{Stats: c.counters()}
	c.statsMu.Lock()
	st.Rebuilds, st.Splits = c.rebuilds, c.splits
	c.statsMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Gen = c.gen
	st.Shards = c.t.n
	st.LiveDocs = c.stats.lenCnt
	st.ShardDocs = make([]int, c.t.n)
	st.ShardDelta = make([]int, c.t.n)
	for s, sh := range c.t.shards {
		docs, tombstones := sh.d.pending()
		st.ShardDocs[s], st.ShardDelta[s] = sh.live, docs
		st.DeltaDocs += docs
		st.Tombstones += tombstones
	}
	return st
}

// Gen returns the writer generation.
func (c *Cluster) Gen() uint64 { return c.genA.Load() }

// NeedsMerge reports whether some shard's delta has reached the merge
// threshold.
func (c *Cluster) NeedsMerge() bool {
	if c.cfg.MergeThreshold <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.t.shards {
		if len(sh.d.docs) >= c.cfg.MergeThreshold {
			return true
		}
	}
	return false
}

// Progress returns the writer generation and the pending records across
// shards (ClusterStats.Lag) without Stats' walk of the deltas — what an
// acknowledged write and a health probe read.
func (c *Cluster) Progress() (gen, lag uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.t.shards {
		lag += uint64(len(sh.d.docs))
	}
	return c.gen, lag
}
