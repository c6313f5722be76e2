package index

import (
	"fmt"

	"griffin/internal/ef"
)

// Elias-Fano and FreqStore blocks are each encoded from their own
// <= BlockSize elements alone (docIDs relative to the block's first one,
// frequencies at the block's own width), so a list whose first
// k*BlockSize postings did not change keeps its first k blocks of both
// forms byte for byte — and, the two block tables being paged,
// the pages below k as they are, rows and words, and in the page k falls
// in the words before k: a spliced list allocates its tail's words, per
// table the rows of the page k falls in, and a page table; nothing the
// size of the list. The helpers below are what a
// live merge builds on: decode a list from block k, re-encode only that
// tail behind the shared prefix, and assemble an Index from the finished
// lists. Builder.Build encodes through the same SpliceList (k = 0), which
// is what makes a spliced segment identical to a fresh build of the same
// logical corpus.

// DecodeFrom decodes the postings of blocks [k, end): docIDs and their
// parallel frequencies, as fresh slices.
func (p *PostingList) DecodeFrom(k int) (ids, freqs []uint32) {
	n := p.N - k*BlockSize
	ids, freqs = make([]uint32, n), make([]uint32, n)
	for i := k; i < p.EF.NumBlocks(); i++ {
		off := (i - k) * BlockSize
		p.EF.DecompressBlock(i, ids[off:])
		p.Freqs.DecodeBlock(i, freqs[off:])
	}
	return ids, freqs
}

// SpliceList returns term's posting list made of old's blocks [0, k),
// shared by reference (ef.List.Splice: whole pages as they are, and of
// the page k falls in the words before k as a view, its rows copied),
// followed by the encoding of the tail postings (ids strictly ascending
// and above every prefix docID, freqs parallel). With k == 0 nothing of
// old is used (it may be nil) and the result is the plain encoding of the
// tail.
func SpliceList(term string, old *PostingList, k int, ids, freqs []uint32) (*PostingList, error) {
	if len(freqs) != len(ids) {
		return nil, fmt.Errorf("index: term %q: %d freqs for %d docIDs", term, len(freqs), len(ids))
	}
	var oldEF *ef.List
	var oldFreqs *FreqStore
	if k > 0 {
		oldEF, oldFreqs = old.EF, old.Freqs
	}
	l, err := oldEF.Splice(k, ids)
	if err != nil {
		return nil, fmt.Errorf("index: term %q: %w", term, err)
	}
	return &PostingList{Term: term, N: l.N, EF: l, Freqs: spliceFreqs(oldFreqs, k, freqs)}, nil
}

// ListEncoder encodes posting lists from postings handed over a block at
// a time, for a caller that never holds a whole list (the shard split):
// Append as many blocks as the list has, then Finish. The list is the one
// SpliceList(term, nil, 0, ...) encodes from the same postings, page for
// page (see ef.Encoder). The zero value is ready to use.
type ListEncoder struct {
	ef    ef.Encoder
	freqs freqEncoder
}

// Append encodes the list's next block: BlockSize postings — fewer only
// in its last block — with ids strictly ascending and above every docID
// appended before, and freqs parallel.
func (e *ListEncoder) Append(ids, freqs []uint32) error {
	if len(freqs) != len(ids) {
		return fmt.Errorf("index: %d freqs for %d docIDs", len(freqs), len(ids))
	}
	if err := e.ef.Append(ids); err != nil {
		return err
	}
	e.freqs.append(freqs)
	return nil
}

// SetArena has the pages of the docID and frequency tables the encoder
// closes keep their words in a (nil: on the heap); see ef.Arena.
func (e *ListEncoder) SetArena(a *ef.Arena) {
	e.ef.SetArena(a)
	e.freqs.pager.Arena = a
}

// Len returns the number of postings appended since the last Finish.
func (e *ListEncoder) Len() int { return e.freqs.n }

// Finish returns term's list of the blocks appended since the last
// Finish and readies the encoder for the next list.
func (e *ListEncoder) Finish(term string) *PostingList {
	l := e.ef.Finish()
	return &PostingList{Term: term, N: l.N, EF: l, Freqs: e.freqs.finish()}
}

// Assemble returns the Index over finished posting lists (shared with
// the caller, one per term) and the collection statistics given — the
// last step of a merge, which already knows all three exactly.
func Assemble(lists []*PostingList, numDocs int, docLens LenTable, avgDocLen float64) *Index {
	ix := &Index{
		NumDocs:   numDocs,
		DocLens:   docLens,
		AvgDocLen: avgDocLen,
		terms:     make(map[string]*PostingList, len(lists)),
	}
	for _, pl := range lists {
		ix.terms[pl.Term] = pl
	}
	return ix
}
