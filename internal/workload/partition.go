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

// PartitionIndex splits ix into shards range-partitioned sub-indexes:
// shard s owns the docIDs [s·U/n, (s+1)·U/n), U being ix's NumDocs, and
// the last shard every docID above too (index.ShardWindow). A shard's
// list for a term is the run of the source list's whole blocks that
// overlap its window, a view that shares the source's rows, words and
// frequencies (index.Index.Shard): nothing is decoded or copied, so a
// split costs a few binary searches a term. Shard indexes keep the global
// docID space and global collection statistics; they are views for
// cluster serving, which WriteTo refuses to serialize.
func PartitionIndex(ix *index.Index, shards int) ([]*index.Index, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("workload: shard count %d must be positive", shards)
	}
	out := make([]*index.Index, shards)
	for s := range out {
		out[s] = ix.Shard(index.ShardWindow(s, shards, ix.NumDocs))
	}
	return out, nil
}

// PartitionCorpus partitions a generated corpus's index (the experiment
// and test entry point).
func PartitionCorpus(c *Corpus, shards int) ([]*index.Index, error) {
	return PartitionIndex(c.Index, shards)
}
