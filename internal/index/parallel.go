package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Document is one input to the parallel builder.
type Document struct {
	ID     uint32
	Tokens []string
}

// BuildParallel indexes a document collection across a worker pool using
// the segment-then-merge strategy production indexers use: the collection
// is split into contiguous docID ranges, each worker accumulates an
// in-memory segment for its range, and the segments' posting lists are
// concatenated per term (docID ranges are disjoint and ordered, so the
// merge is a cheap append in segment order) before a single compression
// pass produces the final index.
//
// Documents may arrive in any order; they are sorted by ID first.
// Duplicate IDs are rejected. workers <= 0 selects GOMAXPROCS.
func BuildParallel(docs []Document, workers int) (*Index, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(docs) == 0 {
		return NewBuilder(CodecEF).Build()
	}

	sorted := make([]Document, len(docs))
	copy(sorted, docs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, fmt.Errorf("index: duplicate docID %d", sorted[i].ID)
		}
	}

	// Contiguous ranges keep per-term docIDs ordered across segments.
	numSegs := workers
	if numSegs > len(sorted) {
		numSegs = len(sorted)
	}
	segSize := (len(sorted) + numSegs - 1) / numSegs

	type segment struct {
		postings map[string]*building
		docLens  map[uint32]uint32
		err      error
	}
	segs := make([]segment, numSegs)
	var wg sync.WaitGroup
	for si := 0; si < numSegs; si++ {
		lo := si * segSize
		hi := lo + segSize
		if hi > len(sorted) {
			hi = len(sorted)
		}
		wg.Add(1)
		go func(si, lo, hi int) {
			defer wg.Done()
			seg := segment{
				postings: make(map[string]*building),
				docLens:  make(map[uint32]uint32, hi-lo),
			}
			counts := make(map[string]uint32)
			for _, d := range sorted[lo:hi] {
				seg.docLens[d.ID] = uint32(len(d.Tokens))
				clear(counts)
				for _, tok := range d.Tokens {
					counts[tok]++
				}
				for term, freq := range counts {
					p := seg.postings[term]
					if p == nil {
						p = &building{}
						seg.postings[term] = p
					}
					p.docIDs = append(p.docIDs, d.ID)
					p.freqs = append(p.freqs, freq)
				}
			}
			segs[si] = seg
		}(si, lo, hi)
	}
	wg.Wait()
	for _, s := range segs {
		if s.err != nil {
			return nil, s.err
		}
	}

	// Merge: segments cover ascending disjoint docID ranges, so per-term
	// lists concatenate in segment order.
	b := NewBuilder(CodecEF)
	for _, s := range segs {
		for id, l := range s.docLens {
			b.docLens[id] = l
			if !b.hasDocs || id > b.maxDocID {
				b.maxDocID = id
				b.hasDocs = true
			}
		}
		for term, p := range s.postings {
			dst := b.postings[term]
			if dst == nil {
				dst = &building{}
				b.postings[term] = dst
			}
			dst.docIDs = append(dst.docIDs, p.docIDs...)
			dst.freqs = append(dst.freqs, p.freqs...)
		}
	}
	return b.Build()
}
