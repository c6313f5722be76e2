package index

import "griffin/internal/ef"

// BlockList is the block-granular view of a compressed docID list that the
// CPU intersection algorithms operate on: enumerate blocks, binary-search
// their first docIDs (skip pointers), and decompress individual blocks on
// demand. EFView (the index's lists) and RawView (intermediate results)
// satisfy it.
type BlockList interface {
	// Len returns the total element count.
	Len() int
	// NumBlocks returns the block count.
	NumBlocks() int
	// BlockLen returns the element count of block i.
	BlockLen(i int) int
	// BlockFirst returns the first docID of block i (the skip pointer).
	BlockFirst(i int) uint32
	// DecompressBlock decodes block i into dst (capacity >= BlockSize) and
	// returns the element count.
	DecompressBlock(i int, dst []uint32) int
}

// RandomAccess is the optional BlockList extension for codecs that can
// read a single element of a compressed block without decoding the whole
// block (Elias-Fano's select-based access). The CPU skip-pointer search
// exploits it: probing a compressed block in place is far cheaper than
// decoding 128 elements per probe, and it is what makes the CPU the right
// processor above the λ = 128 crossover (§2.2, Figure 8).
type RandomAccess interface {
	// Get returns element i of block b without full decompression.
	Get(b, i int) uint32
}

// EFView adapts an Elias-Fano list to BlockList.
type EFView struct{ L *ef.List }

// Len implements BlockList.
func (v EFView) Len() int { return v.L.N }

// NumBlocks implements BlockList.
func (v EFView) NumBlocks() int { return v.L.NumBlocks() }

// BlockLen implements BlockList.
func (v EFView) BlockLen(i int) int {
	return int(v.L.Pages[i>>ef.PageShift].Rows[i&(1<<ef.PageShift-1)].N)
}

// BlockFirst implements BlockList.
func (v EFView) BlockFirst(i int) uint32 { return v.L.First(i) }

// DecompressBlock implements BlockList.
func (v EFView) DecompressBlock(i int, dst []uint32) int { return v.L.DecompressBlock(i, dst) }

// Get implements RandomAccess via Elias-Fano select.
func (v EFView) Get(b, i int) uint32 { return v.L.Get(b, i) }

// RawView adapts an already-decompressed docID slice to BlockList (used
// for intermediate results, which live uncompressed). Blocks are synthetic
// BlockSize windows; "decompression" is a copy with zero modeled decode
// cost (the intersect package charges raw views as merges, not decodes).
type RawView struct{ IDs []uint32 }

// Len implements BlockList.
func (v RawView) Len() int { return len(v.IDs) }

// NumBlocks implements BlockList.
func (v RawView) NumBlocks() int {
	return (len(v.IDs) + BlockSize - 1) / BlockSize
}

// BlockLen implements BlockList.
func (v RawView) BlockLen(i int) int {
	lo := i * BlockSize
	hi := lo + BlockSize
	if hi > len(v.IDs) {
		hi = len(v.IDs)
	}
	return hi - lo
}

// BlockFirst implements BlockList.
func (v RawView) BlockFirst(i int) uint32 { return v.IDs[i*BlockSize] }

// DecompressBlock implements BlockList.
func (v RawView) DecompressBlock(i int, dst []uint32) int {
	lo := i * BlockSize
	hi := lo + BlockSize
	if hi > len(v.IDs) {
		hi = len(v.IDs)
	}
	return copy(dst, v.IDs[lo:hi])
}
