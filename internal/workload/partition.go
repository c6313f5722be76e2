// Document partitioning for the cluster layer (internal/cluster): the
// corpus is split across N shards by docID, each shard holding the full
// dictionary but only its own documents' postings. The paper's §5
// scalability discussion rejects caching everything on one device because
// no single device memory holds the corpus; partitioning the documents
// across several per-shard engines — each with its own simulated device —
// is the standard IR answer (and the one MGSim-style multi-GPU systems
// take).
//
// Partitioning preserves *global* collection statistics: each shard index
// keeps the unpartitioned NumDocs, DocLens, and AvgDocLen, and every
// shard posting list carries the term's collection-wide document
// frequency (PostingList.GlobalN). BM25 therefore scores a document
// identically — bit for bit — whether it is ranked by a shard engine or
// by a single engine over the whole corpus, which is what makes
// scatter-gather merge results provably equal to the single-engine run.
package workload

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// ShardOf is the deterministic document-partition function: docID d lives
// on shard d mod shards. Modulo placement spreads both the docID space
// and every term's posting list near-uniformly, so shard service times
// stay balanced (the max-of-shards latency model degrades gracefully).
func ShardOf(docID uint32, shards int) int {
	return int(docID % uint32(shards))
}

// PartitionIndex splits ix into shards document-partitioned sub-indexes
// (ShardOf placement): StartPartition, then Wait. Shard indexes keep the
// global docID space and global collection statistics; they are
// in-memory views for cluster serving, which WriteTo refuses to
// serialize (the file cannot carry GlobalN or a stride).
//
// A shard's lists are encoded at stride shards (ef.List.Stride): a
// block's docIDs are all one residue mod shards, so the block stores
// their distances from its first docID divided by shards, and spends the
// low bits a posting of the source list spends rather than log2(shards)
// more.
//
// Each page of a shard list, its block rows and its words together, is
// copied into one run of a region off the Go heap (an ef.Arena), sealed
// read-only before Wait returns; what the heap keeps of a shard
// is its page headers, about 2 B a block. Rows and words share the run,
// so a page is never half in a region, and the rows hold no pointer, so
// memory the collector does not scan can hold them. A region is unmapped
// once no list, no list spliced from one and no device cache entry can
// reach a page in it. When ix was opened from a file, a list's
// pages of the mapping are released as soon as it and its neighbours in
// the file have been split (index.Index.ReleaseList), so the split never
// holds much more than one copy of the postings; reading ix again faults
// them back in.
func PartitionIndex(ix *index.Index, shards int) ([]*index.Index, error) {
	p, err := StartPartition(ix, shards)
	if err != nil {
		return nil, err
	}
	if err := p.Wait(); err != nil {
		return nil, err
	}
	return p.Shards(), nil
}

// Partition is a split of one index into shards (PartitionIndex) that
// runs behind StartPartition: its shards can serve at once, a lookup
// waiting until its own term is split (index.ShardSet).
type Partition struct {
	set   *index.ShardSet
	arena ef.Arena
	start time.Time
	wg    sync.WaitGroup
	errs  []error      // per term: why its split failed
	cpuNs atomic.Int64 // the workers' threads' CPU time

	once  sync.Once
	err   error
	stats PartitionStats
}

// PartitionStats is what a finished partition cost.
type PartitionStats struct {
	// Wall runs from StartPartition until the shard lists are sealed;
	// CPU is the CPU time of the threads that split them (0 where the
	// platform does not report a thread's).
	Wall, CPU time.Duration
	// Waits counts the lookups that found their term not yet split, and
	// Waited is how long they waited for it in all.
	Waits  int
	Waited time.Duration
}

// StartPartition starts splitting ix into shards, as PartitionIndex does,
// and returns at once. Terms are split on GOMAXPROCS workers in the
// order of the file, and each is published to the shards as its split
// ends. ix must not change until Wait returns.
func StartPartition(ix *index.Index, shards int) (*Partition, error) {
	return startPartition(ix, shards, nil)
}

// startPartition is StartPartition with a hook each worker calls, when
// it is set, before it splits term t: tests hold the split there.
func startPartition(ix *index.Index, shards int, hold func(t int)) (*Partition, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("workload: shard count %d must be positive", shards)
	}
	p := &Partition{set: index.NewShardSet(ix, shards), start: time.Now()}
	terms := p.set.Terms()
	p.errs = make([]error, len(terms))
	// A list's pages are released once it and both its neighbours in the
	// file, which is in term order, have been split — failed or not, the
	// pages read back from the file. Its release drops the pages it shares
	// with them, and a read that faulted one of those back in would map
	// the whole large folio around it, the released pages with it.
	done := make([]atomic.Bool, len(terms))
	release := func(t int) {
		if t >= 0 && t < len(terms) && done[t].Load() &&
			(t == 0 || done[t-1].Load()) && (t+1 == len(terms) || done[t+1].Load()) {
			pl, _ := ix.Lookup(terms[t])
			ix.ReleaseList(pl)
		}
	}
	var next atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(terms)); w > 0; w-- {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// The thread is the worker's alone, so its CPU time is the
			// split's.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu := threadCPU()
			defer func() { p.cpuNs.Add(int64(threadCPU() - cpu)) }()
			sp := newSplitter(shards, &p.arena)
			for {
				t := int(next.Add(1)) - 1
				if t >= len(terms) {
					return
				}
				if hold != nil {
					hold(t)
				}
				pl, _ := ix.Lookup(terms[t])
				if lists, err := sp.split(pl); err != nil {
					p.errs[t] = err
				} else {
					p.set.Publish(t, lists)
				}
				done[t].Store(true)
				release(t - 1)
				release(t)
				release(t + 1)
			}
		}()
	}
	return p, nil
}

// Shards returns the shard indexes, shard s at index s. Until Wait
// returns, a lookup on one waits for its term's split.
func (p *Partition) Shards() []*index.Index { return p.set.Shards() }

// Wait returns once every term is split and the shard lists are sealed,
// with the first error in term order: a shard list that could not be
// encoded, or a region that could not be sealed. A term whose split
// failed is never published, so its lookups go on waiting: the shards of
// a failed partition must not serve. Wait may be called from several
// goroutines, and again.
func (p *Partition) Wait() error {
	p.once.Do(func() {
		p.wg.Wait()
		for _, err := range p.errs {
			if err != nil {
				p.err = err
				break
			}
		}
		if p.err == nil {
			if err := p.arena.Seal(); err != nil {
				p.err = fmt.Errorf("workload: sealing shard lists: %w", err)
			}
		}
		waits, waited := p.set.Waits()
		p.stats = PartitionStats{Wall: time.Since(p.start), CPU: time.Duration(p.cpuNs.Load()), Waits: waits, Waited: waited}
	})
	return p.err
}

// Stats waits for the partition (Wait) and returns what it cost.
func (p *Partition) Stats() PartitionStats {
	p.Wait()
	return p.stats
}

// splitter splits posting lists across shards a block at a time: a source
// block is decoded into 128 postings, each posting is staged under its
// shard, and a shard's staging is encoded as that shard's next block the
// moment it fills. No step holds more of a list in decoded form than one
// block per shard, whatever the list's length. One worker owns a splitter
// and reuses it for every term it splits.
type splitter struct {
	shard  modulus
	stages []stage
	// ids and freqs hold the source block being scattered.
	ids, freqs [index.BlockSize]uint32
}

// stage is one shard's share of the list being split: the postings of its
// block in progress, each docID held as its quotient by the shard count
// (the shard is its remainder), and the encoder that has taken the full
// ones.
type stage struct {
	qs, freqs [index.BlockSize]uint32
	n         int // postings staged
	enc       index.ListEncoder
}

// newSplitter returns a splitter whose shard lists are encoded at stride
// shards: the docIDs of a shard's list are all one residue mod shards, so
// each lies a multiple of shards past its block's first.
func newSplitter(shards int, arena *ef.Arena) *splitter {
	sp := &splitter{shard: newModulus(uint32(shards)), stages: make([]stage, shards)}
	for s := range sp.stages {
		sp.stages[s].enc.SetArena(arena)
		sp.stages[s].enc.SetStride(uint32(shards))
	}
	return sp
}

// split encodes pl's postings as one list per shard (nil where the shard
// holds none of them), each stamped with pl's collection-wide document
// frequency.
func (sp *splitter) split(pl *index.PostingList) ([]*index.PostingList, error) {
	var err error
	flush := func(s int) {
		st := &sp.stages[s]
		if e := st.enc.Append(st.qs[:st.n], st.freqs[:st.n], uint32(s)); e != nil && err == nil {
			err = fmt.Errorf("workload: shard %d: %w", s, e)
		}
		st.n = 0
	}
	mod, stages, freqs := sp.shard, sp.stages, &sp.freqs
	for k := 0; k < pl.EF.NumBlocks() && err == nil; k++ {
		// Every 512 blocks (64 K postings, about a millisecond) the
		// worker yields: a server that splits behind its listener
		// (StartPartition) answers in between, not a scheduler's time
		// slice (10 ms) later.
		if k&511 == 511 {
			runtime.Gosched()
		}
		n := pl.EF.DecompressBlock(k, sp.ids[:])
		pl.Freqs.DecodeBlock(k, freqs[:])
		// A stage holds fewer than BlockSize postings between flushes, so
		// the masks change no index: they spare each store a bounds check.
		for i, d := range sp.ids[:n] {
			q, s := mod.divmod(d)
			st := &stages[s]
			j := st.n & (index.BlockSize - 1)
			st.qs[j], st.freqs[j] = q, freqs[i&(index.BlockSize-1)]
			if st.n = j + 1; st.n == index.BlockSize {
				flush(s)
			}
		}
	}
	// Every stage and encoder is emptied even after an error: the next
	// term starts clean.
	out := make([]*index.PostingList, len(sp.stages))
	for s := range sp.stages {
		st := &sp.stages[s]
		if st.n > 0 {
			flush(s)
		}
		if st.enc.Len() > 0 {
			out[s] = st.enc.Finish(pl.Term)
			out[s].GlobalN = pl.N
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// modulus divides by a divisor fixed up front with two multiplications
// instead of a division per posting (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019: exact for every 32-bit d and
// divisor). divmod(d) is d / divisor and ShardOf(d, divisor).
type modulus struct {
	divisor uint64
	m       uint64 // ceil(2^64 / divisor), 0 for divisor 1 (2^64 wraps)
	one     uint32 // all ones for divisor 1, whose quotient m cannot give
}

func newModulus(divisor uint32) modulus {
	m := modulus{divisor: uint64(divisor), m: ^uint64(0)/uint64(divisor) + 1}
	if divisor == 1 {
		m.one = ^uint32(0)
	}
	return m
}

// divmod returns d's quotient and remainder by the divisor: the high
// word of m·d is the quotient, and its low word, times the divisor, has
// the remainder as its high word.
func (m modulus) divmod(d uint32) (q uint32, r int) {
	hi, lo := bits.Mul64(m.m, uint64(d))
	rem, _ := bits.Mul64(lo, m.divisor)
	return uint32(hi) | d&m.one, int(rem)
}

// PartitionCorpus partitions a generated corpus's index (the experiment
// and test entry point).
func PartitionCorpus(c *Corpus, shards int) ([]*index.Index, error) {
	return PartitionIndex(c.Index, shards)
}
