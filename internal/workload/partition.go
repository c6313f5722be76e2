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
	// encoded on the spot (the Builder's own encoder) and the raw postings
	// of one term are all that is ever held.
	lists := make([][]*index.PostingList, shards)
	ids := make([][]uint32, shards)
	freqs := make([][]uint32, shards)
	for _, term := range terms {
		pl, _ := ix.Lookup(term)
		for s := 0; s < shards; s++ {
			ids[s] = ids[s][:0]
			freqs[s] = freqs[s][:0]
		}
		for i, d := range pl.DocIDs() {
			s := ShardOf(d, shards)
			ids[s] = append(ids[s], d)
			freqs[s] = append(freqs[s], pl.FreqOf(i))
		}
		for s := 0; s < shards; s++ {
			if len(ids[s]) == 0 {
				continue
			}
			spl, err := index.SpliceList(term, nil, 0, ids[s], freqs[s], codec)
			if err != nil {
				return nil, fmt.Errorf("workload: shard %d: %w", s, err)
			}
			spl.GlobalN = pl.N
			lists[s] = append(lists[s], spl)
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

// PartitionCorpus partitions a generated corpus's index (the experiment
// and test entry point).
func PartitionCorpus(c *Corpus, shards int) ([]*index.Index, error) {
	return PartitionIndex(c.Index, shards)
}
