package index

import "fmt"

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
	ix, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}
