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
	"runtime"
	"sync"
	"sync/atomic"

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
// serving, not meant to be serialized (WriteTo would drop GlobalN).
func PartitionIndex(ix *index.Index, shards int) ([]*index.Index, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("workload: shard count %d must be positive", shards)
	}
	terms := ix.Terms()

	codec := index.CodecEF
	for _, t := range terms {
		if pl, ok := ix.Lookup(t); ok && pl.PFD != nil {
			codec = index.CodecBoth
		}
		break
	}

	// A term's shard lists are complete once the term is split, so each is
	// encoded on the spot (the Builder's own encoder) and a worker only
	// ever holds the raw postings of the one term it is splitting. Terms
	// are independent, so they are split on GOMAXPROCS workers; perTerm
	// keeps the results in term order, which makes the shard indexes the
	// ones a single goroutine would build.
	perTerm := make([][]*index.PostingList, len(terms))
	errs := make([]error, len(terms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(terms)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([][]uint32, shards)
			freqs := make([][]uint32, shards)
			for {
				t := int(next.Add(1)) - 1
				if t >= len(terms) {
					return
				}
				pl, _ := ix.Lookup(terms[t])
				perTerm[t], errs[t] = splitList(pl, codec, ids, freqs)
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

	// Global statistics: shard engines score against the whole
	// collection, not their slice of it.
	out := make([]*index.Index, shards)
	for s := range out {
		out[s] = index.Assemble(lists[s], ix.NumDocs, ix.DocLens, ix.AvgDocLen)
	}
	return out, nil
}

// splitList encodes pl's postings as one list per shard (nil where the
// shard holds none of them), each stamped with pl's collection-wide
// document frequency. ids and freqs are the caller's per-shard scratch.
func splitList(pl *index.PostingList, codec index.Codec, ids, freqs [][]uint32) ([]*index.PostingList, error) {
	for s := range ids {
		ids[s] = ids[s][:0]
		freqs[s] = freqs[s][:0]
	}
	for i, d := range pl.DocIDs() {
		s := ShardOf(d, len(ids))
		ids[s] = append(ids[s], d)
		freqs[s] = append(freqs[s], pl.FreqOf(i))
	}
	out := make([]*index.PostingList, len(ids))
	for s := range ids {
		if len(ids[s]) == 0 {
			continue
		}
		spl, err := index.SpliceList(pl.Term, nil, 0, ids[s], freqs[s], codec)
		if err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", s, err)
		}
		spl.GlobalN = pl.N
		out[s] = spl
	}
	return out, nil
}

// PartitionCorpus partitions a generated corpus's index (the experiment
// and test entry point).
func PartitionCorpus(c *Corpus, shards int) ([]*index.Index, error) {
	return PartitionIndex(c.Index, shards)
}
