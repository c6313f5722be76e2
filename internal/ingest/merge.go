package ingest

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"griffin/internal/index"
)

// Merge folds every shard's pending delta into a new shard segment —
// untouched blocks shared with the old one, the rest re-encoded — and
// swaps it in under the commit gate, once the queries reading the old
// one have finished. An aborted merge (injected fault on the merge path)
// leaves the published snapshot untouched — never a torn state — and is
// retried up to the configured budget.
func (c *Cluster) Merge() error { return c.mergeAll(0, false) }

// MergeAt is Merge anchored at an explicit simulated arrival time on each
// merged shard's node — the load-study path, where merge re-encoding work
// queues behind (and delays) concurrent queries.
func (c *Cluster) MergeAt(arrival time.Duration) error { return c.mergeAll(arrival, true) }

func (c *Cluster) mergeAll(arrival time.Duration, timed bool) error {
	return c.serial(func() error {
		c.mu.Lock()
		n := c.t.n
		c.mu.Unlock()
		for s := 0; s < n; s++ {
			if err := c.mergeShardLocked(s, arrival, timed); err != nil {
				return err
			}
		}
		return nil
	})
}

// MergeShard is Merge of shard s alone: what a background merge runs.
func (c *Cluster) MergeShard(s int) error {
	return c.serial(func() error { return c.mergeShardLocked(s, 0, false) })
}

// mergeShardLocked is one shard merge with its retries. Caller holds
// mergeMu (Checkpoint holds it across the merge and the checkpoint write
// so the persisted segment is the one the watermark describes).
func (c *Cluster) mergeShardLocked(s int, arrival time.Duration, timed bool) error {
	return c.retry(func() error { return c.mergeShardOnce(s, arrival, timed) })
}

// mergeShardOnce runs one merge attempt of shard s: freeze, splice,
// price, swap. An empty delta is no attempt: it draws no fault.
func (c *Cluster) mergeShardOnce(s int, arrival time.Duration, timed bool) error {
	// Freeze a view covering every mutation of the shard so far, and read
	// the statistics and the live length table the merged segment is
	// stamped with in the same hold of the writer lock. Mutations landing
	// after this point survive the merge in the delta and correctly shadow
	// the merged segment; mergeMu keeps main the live segment until the
	// commit.
	c.mu.Lock()
	t := c.t
	if s < 0 || s >= t.n {
		c.mu.Unlock()
		return fmt.Errorf("ingest: merge shard %d of %d", s, t.n)
	}
	sh := t.shards[s]
	v, main := sh.d.freeze(), sh.ix
	if v.Empty() {
		c.mu.Unlock()
		return nil
	}
	// Every entry at or past numDocs is zero (no live document there), so
	// cutting the table to the collection size drops nothing; the snapshot
	// shares its pages with the writer's table instead of copying them.
	c.liveLens.Resize(c.stats.numDocs)
	st, lens := c.stats, c.liveLens.Snapshot()
	c.mu.Unlock()

	mergeSite := site + ".merge"
	if t.n > 1 {
		mergeSite = fmt.Sprintf("%s.s%d.merge", site, s)
	}
	// Priced on the shard's replica-0 node — the same copy/compute lanes
	// that replica's queries use.
	plan, cost, err := c.prepare(mergeSite, t.c.ShardNode(s), main, v, arrival, timed)
	if err != nil {
		return err
	}
	// At one shard these are the merged corpus' exact statistics; at more
	// they are the global ones at the freeze, a best-effort stamp that
	// overlays correct while the cluster is dirty.
	ix2 := index.Assemble(plan.lists, st.numDocs, lens, st.avgDocLen())

	// Commit: drain in-flight queries at the gate, swap the segment into
	// every replica — each engine's successor keeps its device node, so
	// timelines, submit hooks and the batching stage survive — drop the
	// covered records, publish.
	c.gate.Lock()
	defer c.gate.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := t.c.ReplaceShard(s, ix2); err != nil {
		return err
	}
	sh.d.drop(v.gen)
	sh.ix = ix2
	if t.n > 1 {
		c.exact = false
	}
	c.publishLocked()
	c.merged(v, cost)
	return nil
}

// changedList describes one posting list the merge re-encodes: the
// inputs of its modeled price. The price is list-granular — the whole old
// list up, the whole merged list back — however few blocks the splice
// re-encoded on the host.
type changedList struct {
	term   string
	old    *index.PostingList // nil for delta-only terms
	oldN   int
	merged int
}

// mergePlan is the merge's output: the merged segment's posting lists
// (untouched ones shared with the old segment, changed ones spliced) and
// the changed set the modeled clock bills.
type mergePlan struct {
	changed []changedList
	lists   []*index.PostingList
}

// planMerge folds the view into the main segment's lists. A list none of
// whose postings is shadowed and that gains no delta posting is shared as
// is. Any other list is spliced at its first affected block k: blocks
// [0,k) are shared, blocks [k,end) are decoded, filtered through the
// shadow set, merged with the delta's live postings and re-encoded.
// Every docID and frequency block is encoded from its own elements alone,
// so the result equals an index.Builder run over the same logical corpus
// — k = 0 is that run.
func planMerge(main *index.Index, v *View) (*mergePlan, error) {
	p := &mergePlan{}
	shadow := make([]uint32, 0, len(v.docs))
	for id := range v.docs {
		shadow = append(shadow, id)
	}
	slices.Sort(shadow)

	for _, term := range main.Terms() {
		pl, _ := main.Lookup(term)
		deltaIDs := v.postings[term]
		k := firstShadowedBlock(pl, shadow)
		if len(deltaIDs) > 0 {
			if bd := max(blockOf(pl, 0, deltaIDs[0]), 0); k < 0 || bd < k {
				k = bd
			}
		}
		if k < 0 {
			p.lists = append(p.lists, pl)
			continue
		}
		tailIDs, tailFreqs := pl.DecodeFrom(k)
		if err := p.splice(term, pl, k, tailIDs, tailFreqs, v); err != nil {
			return nil, err
		}
	}

	// Delta-only terms (absent from the main dictionary), sorted for a
	// deterministic device-submission order.
	var fresh []string
	for term := range v.postings {
		if _, ok := main.Lookup(term); !ok {
			fresh = append(fresh, term)
		}
	}
	sort.Strings(fresh)
	for _, term := range fresh {
		if err := p.splice(term, nil, 0, nil, nil, v); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// splice merges one changed term's decoded tail with the delta, records
// its price inputs and, unless every posting died (the term leaves the
// dictionary), its re-encoded list.
func (p *mergePlan) splice(term string, old *index.PostingList, k int, tailIDs, tailFreqs []uint32, v *View) error {
	ids, freqs := mergePostings(tailIDs, tailFreqs, v, term)
	ch := changedList{term: term, old: old, merged: k*index.BlockSize + len(ids)}
	if old != nil {
		ch.oldN = old.N
	}
	p.changed = append(p.changed, ch)
	if ch.merged == 0 {
		return nil
	}
	pl, err := index.SpliceList(term, old, k, ids, freqs)
	if err != nil {
		return err
	}
	p.lists = append(p.lists, pl)
	return nil
}

// blockOf returns the last block at or after from whose first docID is
// <= d — the only one that can hold d — or from-1 when d precedes block
// from.
func blockOf(pl *index.PostingList, from int, d uint32) int {
	return from + sort.Search(pl.EF.NumBlocks()-from, func(i int) bool { return pl.EF.First(from+i) > d }) - 1
}

// firstShadowedBlock returns the block holding pl's first shadowed
// posting, -1 when no shadowed document (ascending docIDs) appears in
// the list. The probe walks the skip pointers forward and decodes a block
// only when a probe lands in a new one, so its cost follows the shadow
// set, not the list.
func firstShadowedBlock(pl *index.PostingList, shadow []uint32) int {
	var buf [index.BlockSize]uint32
	decoded, n := -1, 0
	bi := 0
	for _, d := range shadow {
		if bi = blockOf(pl, bi, d); bi < 0 {
			bi = 0
			continue
		}
		if bi != decoded {
			n = pl.EF.DecompressBlock(bi, buf[:])
			decoded = bi
		}
		if _, found := slices.BinarySearch(buf[:n], d); found {
			return bi
		}
	}
	return -1
}

// mergePostings merges one term's main postings (dropping the shadowed
// ones) with its live delta postings, both ascending.
func mergePostings(mainIDs, mainFreqs []uint32, v *View, term string) ([]uint32, []uint32) {
	deltaIDs := v.postings[term]
	ids := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	freqs := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	i, j := 0, 0
	for i < len(mainIDs) || j < len(deltaIDs) {
		if i < len(mainIDs) && v.docs[mainIDs[i]] != nil {
			i++ // shadowed: superseded or tombstoned
			continue
		}
		if j >= len(deltaIDs) || (i < len(mainIDs) && mainIDs[i] < deltaIDs[j]) {
			ids = append(ids, mainIDs[i])
			freqs = append(freqs, mainFreqs[i])
			i++
		} else {
			d := deltaIDs[j]
			ids = append(ids, d)
			freqs = append(freqs, v.docs[d].tf[term])
			j++
		}
	}
	return ids, freqs
}
