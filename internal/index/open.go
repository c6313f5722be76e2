package index

import (
	"fmt"
	"os"
)

// Open loads the index file at path without decoding it: the file is
// mapped read-only (read whole where there is no mmap) and parsed in
// place, so what it costs on the heap is each list's two arrays of page
// headers, 112 bytes per 64 blocks, and the page table of DocLens — not
// the block rows nor the postings, which stay in the mapping (see Parse).
//
// The mapping lives for the rest of the process and is never unmapped:
// the index, and every segment later spliced from it, point into it, and
// nothing tracks when the last of them goes. That is sound because
// segments are immutable — a stray write through a mapped slice faults
// instead of corrupting the index silently. The file itself must not be
// truncated or rewritten in place while the process runs; replace it by
// rename.
func Open(path string) (*Index, error) {
	data, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	ix, lensEnd, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix.mapped, ix.lensEnd = data, lensEnd
	return ix, nil
}

// ReleaseList lets the memory go that pl's record holds resident in the
// mapping of an opened index — its term header, block table, Elias-Fano
// words and frequency words — once a caller has copied what it needs out
// of it (a shard split, list by list). The range is rounded outward to
// whole pages but never reaches a page holding DocLens, which every shard
// shares. It changes residency only: a later read of pl, or of a
// neighbour whose boundary page it dropped, faults the page back in from
// the file — and, where the kernel maps a whole large folio on a fault,
// the pages around it, this list's among them; so a caller releases a
// list once its neighbours are read too. It does nothing when ix is not
// mapped, when pl's first row or last word does not lie in the mapping
// (a list built on the heap, or spliced with a tail of its own), and
// where the kernel cannot be told. A list spliced inside its last page
// ends in the words that page owns, on the heap, so it is one of those.
func (ix *Index) ReleaseList(pl *PostingList) {
	if ix.mapped == nil || pl.EF.NumBlocks() == 0 {
		return
	}
	// The record is its header (n | numBlocks | termLen | term, padded to
	// 8), its two tables of rows and its words, which end with its last
	// frequency word (see the format above WriteTo): the last of its last
	// page's run, in the words that page owns if it owns any. It is let go
	// from its first row on; the few bytes of header before that lie in
	// the same page or in the one the record before ends in.
	lastPage := &pl.Freqs.pages[len(pl.Freqs.pages)-1]
	last := lastPage.Owned()
	if len(last) == 0 {
		last = lastPage.Words
	}
	lo, okLo := offsetIn(ix.mapped, &pl.EF.Pages[0].Rows[0])
	hi, okHi := offsetIn(ix.mapped, &last[len(last)-1])
	if !okLo || !okHi {
		return // not a list of the mapping, or Parse copied its rows and words (a big-endian host)
	}
	hi += 8
	page := os.Getpagesize()
	lo = max(lo/page*page, (ix.lensEnd+page-1)/page*page)
	hi = min((hi+page-1)/page*page, len(ix.mapped))
	if lo < hi {
		dropResident(ix.mapped[lo:hi])
	}
}
