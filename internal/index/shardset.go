package index

import (
	"slices"
	"sync/atomic"
	"time"
)

// ShardSet is the shard indexes of one document partition, handed out
// before their lists exist and filled in a term at a time as the split
// that makes them publishes each term (workload.StartPartition). A
// lookup on a shard waits until its own term is published, and for no
// other; a term the shard holds no posting of reads absent only once it
// is published. NumTerms, Terms and ListSizes wait until every term is.
//
// Once the last term is published each shard becomes the index Assemble
// would build over its lists: its lookups read a plain map again, and
// nothing it holds refers to the set. A term that is never published —
// its split failed — leaves its lookups waiting: a shard never answers a
// missing list in place of one that could not be made.
type ShardSet struct {
	terms []string // the source dictionary, sorted: term t is terms[t]
	// lists[t] holds term t's list on each shard, nil where the shard
	// holds none of its postings; it is set before ready[t] is closed.
	lists  [][]*PostingList
	ready  []chan struct{}
	left   atomic.Int64  // terms not yet published
	done   chan struct{} // closed once every shard is settled
	shards []*Index
	live   int // source terms with a posting: the union of the shards' dictionaries

	waits, waitedNs atomic.Int64
}

// pendingShard is what a shard of a ShardSet still being filled looks
// its terms up through.
type pendingShard struct {
	set   *ShardSet
	shard int
}

// NewShardSet returns the set of n shard indexes of a partition of src,
// each with src's collection statistics and no term published yet.
func NewShardSet(src *Index, n int) *ShardSet {
	set := &ShardSet{
		terms:  src.Terms(),
		done:   make(chan struct{}),
		shards: make([]*Index, n),
	}
	set.lists = make([][]*PostingList, len(set.terms))
	set.ready = make([]chan struct{}, len(set.terms))
	for t, term := range set.terms {
		set.ready[t] = make(chan struct{})
		if pl, _ := src.Lookup(term); pl.N > 0 {
			set.live++
		}
	}
	set.left.Store(int64(len(set.terms)))
	for s := range set.shards {
		ix := &Index{NumDocs: src.NumDocs, DocLens: src.DocLens, AvgDocLen: src.AvgDocLen}
		ix.pending.Store(&pendingShard{set: set, shard: s})
		set.shards[s] = ix
	}
	if len(set.terms) == 0 {
		set.settle()
	}
	return set
}

// Shards returns the shard indexes, shard s at index s.
func (set *ShardSet) Shards() []*Index { return set.shards }

// Terms returns the source dictionary in sorted order: Publish's term t
// is Terms()[t]. The slice is the set's own and must not be modified.
func (set *ShardSet) Terms() []string { return set.terms }

// Publish hands term t's lists to the shards, lists[s] to shard s (nil
// where it holds none of the term's postings): lookups of the term,
// waiting or to come, return them. Each term is published once, from any
// goroutine.
func (set *ShardSet) Publish(t int, lists []*PostingList) {
	set.lists[t] = lists
	close(set.ready[t])
	if set.left.Add(-1) == 0 {
		set.settle()
	}
}

// Waits returns how many lookups found their term not yet published and
// how long they waited for it in all.
func (set *ShardSet) Waits() (int, time.Duration) {
	return int(set.waits.Load()), time.Duration(set.waitedNs.Load())
}

// settle gives every shard the dictionary Assemble would, then closes
// done. A shard's map is written before its pending pointer is cleared,
// and lookups read the map only once they find the pointer clear.
func (set *ShardSet) settle() {
	for s, ix := range set.shards {
		ix.terms = make(map[string]*PostingList)
		for _, lists := range set.lists {
			if pl := lists[s]; pl != nil {
				ix.terms[pl.Term] = pl
			}
		}
		ix.pending.Store(nil)
	}
	close(set.done)
}

// lookup is Lookup on shard p.shard of a set still being filled.
func (p *pendingShard) lookup(term string) (*PostingList, bool) {
	set := p.set
	t, ok := slices.BinarySearch(set.terms, term)
	if !ok {
		return nil, false
	}
	select {
	case <-set.ready[t]:
	default:
		start := time.Now()
		<-set.ready[t]
		set.waits.Add(1)
		set.waitedNs.Add(int64(time.Since(start)))
	}
	pl := set.lists[t][p.shard]
	return pl, pl != nil
}

// settled returns once ix holds its whole dictionary: at once, but for a
// shard of a set still being filled.
func (ix *Index) settled() {
	if p := ix.pending.Load(); p != nil {
		<-p.set.done
	}
}

// PendingTerms returns, without waiting, how many distinct terms ixs will
// hold together when they are the shards of one ShardSet still being
// filled, in shard order: the source's terms with a posting, each of
// which lands on some shard. ok is false for any other ixs, whose
// dictionaries are already whole.
func PendingTerms(ixs []*Index) (n int, ok bool) {
	if len(ixs) == 0 {
		return 0, false
	}
	p := ixs[0].pending.Load()
	if p == nil || len(p.set.shards) != len(ixs) {
		return 0, false
	}
	for s, ix := range ixs {
		if q := ix.pending.Load(); q == nil || q.set != p.set || q.shard != s {
			return 0, false
		}
	}
	return p.set.live, true
}
