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
// (ShardOf placement). Shard indexes keep the global docID space and
// global collection statistics; they are in-memory views for cluster
// serving, which WriteTo refuses to serialize (the file cannot carry
// GlobalN).
//
// The shard lists' words are copied into regions off the Go heap (an
// ef.Arena), sealed read-only before PartitionIndex returns; what the
// heap keeps of a shard is its block rows, 16 B a block. A region is
// unmapped once no list, no list spliced from one and no device cache
// entry can reach a page in it. When ix was opened from a file, a list's
// pages of the mapping are released as soon as it and its neighbours in
// the file have been split (index.Index.ReleaseList), so the split never
// holds much more than one copy of the postings; reading ix again faults
// them back in.
func PartitionIndex(ix *index.Index, shards int) ([]*index.Index, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("workload: shard count %d must be positive", shards)
	}
	terms := ix.Terms()
	var arena ef.Arena

	// Terms are independent, so they are split on GOMAXPROCS workers, each
	// with its own splitter; perTerm keeps the results in term order, which
	// makes the shard indexes the ones a single goroutine would build.
	perTerm := make([][]*index.PostingList, len(terms))
	errs := make([]error, len(terms))
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
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(terms)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := newSplitter(shards, &arena)
			for {
				t := int(next.Add(1)) - 1
				if t >= len(terms) {
					return
				}
				pl, _ := ix.Lookup(terms[t])
				perTerm[t], errs[t] = sp.split(pl)
				done[t].Store(true)
				release(t - 1)
				release(t)
				release(t + 1)
			}
		}()
	}
	wg.Wait()

	lists := make([][]*index.PostingList, shards)
	for t := range terms {
		if errs[t] != nil {
			return nil, errs[t]
		}
		for s, spl := range perTerm[t] {
			if spl != nil {
				lists[s] = append(lists[s], spl)
			}
		}
	}
	if err := arena.Seal(); err != nil {
		return nil, fmt.Errorf("workload: sealing shard lists: %w", err)
	}

	// Global statistics: shard engines score against the whole
	// collection, not their slice of it.
	out := make([]*index.Index, shards)
	for s := range out {
		out[s] = index.Assemble(lists[s], ix.NumDocs, ix.DocLens, ix.AvgDocLen)
	}
	return out, nil
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
// block in progress and the encoder that has taken the full ones.
type stage struct {
	ids, freqs [index.BlockSize]uint32
	n          int // postings staged
	enc        index.ListEncoder
}

func newSplitter(shards int, arena *ef.Arena) *splitter {
	sp := &splitter{shard: newModulus(uint32(shards)), stages: make([]stage, shards)}
	for s := range sp.stages {
		sp.stages[s].enc.SetArena(arena)
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
		if e := st.enc.Append(st.ids[:st.n], st.freqs[:st.n]); e != nil && err == nil {
			err = fmt.Errorf("workload: shard %d: %w", s, e)
		}
		st.n = 0
	}
	for k := 0; k < pl.EF.NumBlocks() && err == nil; k++ {
		n := pl.EF.DecompressBlock(k, sp.ids[:])
		pl.Freqs.DecodeBlock(k, sp.freqs[:])
		for i, d := range sp.ids[:n] {
			s := sp.shard.of(d)
			st := &sp.stages[s]
			st.ids[st.n], st.freqs[st.n] = d, sp.freqs[i]
			if st.n++; st.n == index.BlockSize {
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

// modulus computes d mod a divisor fixed up front with two multiplications
// instead of a division per posting (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019: exact for every 32-bit d and
// divisor). of(d) == ShardOf(d, divisor).
type modulus struct {
	divisor uint64
	m       uint64 // ceil(2^64 / divisor), 0 for divisor 1 (2^64 wraps)
}

func newModulus(divisor uint32) modulus {
	return modulus{divisor: uint64(divisor), m: ^uint64(0)/uint64(divisor) + 1}
}

func (m modulus) of(d uint32) int {
	hi, _ := bits.Mul64(m.m*uint64(d), m.divisor)
	return int(hi)
}

// PartitionCorpus partitions a generated corpus's index (the experiment
// and test entry point).
func PartitionCorpus(c *Corpus, shards int) ([]*index.Index, error) {
	return PartitionIndex(c.Index, shards)
}
