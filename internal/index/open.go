package index

import (
	"fmt"
	"os"
)

// Open loads the index file at path without decoding it: the file is
// mapped read-only (read whole where there is no mmap) and parsed in
// place, so what it costs on the heap is each list's block rows, 16
// bytes a block, not the postings (see Parse).
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
	ix, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix.mapped = data
	return ix, nil
}

// ReleaseLists lets the memory go that the posting lists of an opened
// index hold resident: the pages of the mapping from the first whole page
// past DocLens to its end, which a shard split has copied every list out
// of. It changes residency only — a later read of a list faults its pages
// back in from the file — and keeps DocLens, which every shard shares. It
// does nothing to an index built or read into the heap, and nothing where
// the kernel cannot be told.
func (ix *Index) ReleaseLists() {
	if ix.mapped == nil {
		return
	}
	page := os.Getpagesize()
	start := (headerLen + 4*ix.NumDocs + page - 1) / page * page
	if start < len(ix.mapped) {
		dropResident(ix.mapped[start:])
	}
}
