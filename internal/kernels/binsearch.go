package kernels

import (
	"sync/atomic"

	"griffin/internal/ef"
	"griffin/internal/gpu"
)

// IntersectBinarySearch intersects a short decompressed device array with a
// long one by parallel binary search: one thread per element of the short
// list probes the long list. This is the conventional GPU intersection the
// paper compares MergePath against (Figure 13, "GPU binary"): fast thanks
// to raw parallelism, but warp-divergent and uncoalesced — each probe
// lands threads in distant memory — which is why MergePath still beats it
// by up to 2.29x on comparable-length lists. One launch: the probe phase
// and the compaction tail.
func IntersectBinarySearch(s *gpu.Stream, shortBuf, longBuf *gpu.Buffer) (*IntersectResult, error) {
	a, b := IDs(shortBuf.Data), IDs(longBuf.Data)
	outBuf, err := allocOutput(s, min(len(a), len(b)))
	if err != nil {
		return nil, err
	}
	if len(a) == 0 || len(b) == 0 {
		return &IntersectResult{Out: outBuf}, nil
	}

	grid := gpu.GridFor(len(a), ThreadsPerBlock)
	tail := newCompactTail(grid)
	tailPhases, tailLane0 := tail.phases(gatherFlagged(a))
	st := s.Launch(&gpu.Kernel{
		Name:  "binsearch_intersect",
		Grid:  grid,
		Block: ThreadsPerBlock,
		Lane0: append([]bool{false}, tailLane0...),
		Phases: append([]gpu.Phase{func(c *gpu.Ctx) {
			i := c.GlobalID()
			if i >= len(a) {
				return
			}
			found, probes := binarySearch(b, a[i])
			if found {
				tail.counts[i] = 1
			}
			// Every probe is a scattered read and a data-dependent
			// branch: neighbors diverge almost every step (§2.3).
			c.DivergentOp(probes)
			c.UncoalescedRead(4 * probes)
		}}, tailPhases...),
	})
	outBuf.Data = tail.out
	return &IntersectResult{Out: outBuf, Count: tail.total, Stats: *st}, nil
}

// gatherFlagged is the compaction tail's emit for the one-thread-per-
// element kernels: thread k's only possible match is a[k] itself.
func gatherFlagged(a []uint32) func(c *gpu.Ctx, k, off int, dst []uint32) {
	return func(c *gpu.Ctx, k, _ int, dst []uint32) {
		dst[0] = a[k]
		c.GlobalRead(4)
	}
}

// binarySearch probes sorted b for v, returning whether it was found and
// the probe count.
func binarySearch(b []uint32, v uint32) (found bool, probes int) {
	lo, hi := 0, len(b)
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		switch {
		case b[mid] < v:
			lo = mid + 1
		case b[mid] > v:
			hi = mid
		default:
			return true, probes
		}
	}
	return false, probes
}

// IntersectBinarySkips intersects a short decompressed device array with a
// *compressed* long list by binary searching the long list's skip pointers
// first (§3.1.2: "Griffin-GPU first does binary search over the skip
// pointers instead of the long list to identify blocks that may contain
// the elements in the short list. It then only transfers, decompresses,
// and processes those blocks."). When the length ratio is large this skips
// the bulk of the decompression work — the effect behind the paper's
// lambda > 128 block-skipping analysis (Figure 9).
//
// Two launches, because the second one's grid is the number of blocks the
// first one found to be needed:
//
//  1. skips_route: route every short element to its candidate block over
//     the skip pointers and mark the block (atomic-or); then scan the marks
//     and gather the needed blocks' ids into a dense list;
//  2. skips_probe: decompress only the needed blocks (Para-EF on the
//     subset), binary search each short element inside its block, and run
//     the compaction tail.
//
// longList must be the *ef.List payload of a device buffer (UploadEF).
func IntersectBinarySkips(s *gpu.Stream, shortBuf, longBuf *gpu.Buffer) (*IntersectResult, error) {
	a := IDs(shortBuf.Data)
	l := longBuf.Data.(*ef.List)
	numBlocks := l.NumBlocks()
	outBuf, err := allocOutput(s, min(len(a), l.N))
	if err != nil {
		return nil, err
	}
	if len(a) == 0 || l.N == 0 {
		return &IntersectResult{Out: outBuf}, nil
	}

	grid := gpu.GridFor(len(a), ThreadsPerBlock)
	blockOf := make([]int32, len(a))
	needed := make([]atomic.Bool, numBlocks)
	slotOf := make([]int32, numBlocks)
	var neededIDs []int32
	st1 := s.Launch(&gpu.Kernel{
		Name:  "skips_route",
		Grid:  grid,
		Block: ThreadsPerBlock,
		Lane0: []bool{false, true},
		Phases: []gpu.Phase{
			// Phase 1: route each short-list element to its candidate block
			// and mark the block as needed.
			func(c *gpu.Ctx) {
				i := c.GlobalID()
				if i >= len(a) {
					return
				}
				bi, probes := upperBoundBlock(l, a[i])
				blockOf[i] = int32(bi)
				needed[bi].Store(true)
				c.DivergentOp(probes)
				c.UncoalescedRead(4 * probes)
				c.UncoalescedWrite(4) // the atomic-or on the block's mark
				c.Op(1)
			},
			// Phase 2: scan the marks and gather the needed blocks' ids
			// (and each needed block's slot in that list). The grid strides
			// over the marks; walked by one lane here and charged as the
			// strided scan.
			func(c *gpu.Ctx) {
				if c.Block != 0 {
					return
				}
				for bi := range needed {
					if needed[bi].Load() {
						slotOf[bi] = int32(len(neededIDs))
						neededIDs = append(neededIDs, int32(bi))
					}
				}
				c.Op(numBlocks)
				c.GlobalRead(4 * numBlocks)
				c.GlobalWrite(8 * len(neededIDs))
			},
		},
	})
	agg := *st1

	// One block per needed EF block decompresses; one thread per short
	// element probes. The grid is the larger of the two, and the blocks a
	// phase has no work for idle through it.
	scratch := make([]uint32, len(neededIDs)*ef.BlockSize)
	scratchLen := make([]int32, len(neededIDs))
	tail := newCompactTail(grid)
	tailPhases, tailLane0 := tail.phases(gatherFlagged(a))
	st2 := s.Launch(&gpu.Kernel{
		Name:  "skips_probe",
		Grid:  max(grid, len(neededIDs)),
		Block: ThreadsPerBlock,
		Lane0: append([]bool{true, false}, tailLane0...),
		Phases: append([]gpu.Phase{
			// Phase 1: one block per needed EF block decompresses it.
			func(c *gpu.Ctx) {
				if c.Block >= len(neededIDs) {
					return
				}
				bi := int(neededIDs[c.Block])
				blk := l.Block(bi)
				n := l.DecompressBlock(bi, scratch[c.Block*ef.BlockSize:(c.Block+1)*ef.BlockSize])
				scratchLen[c.Block] = int32(n)
				// Charged as the Para-EF phases would be for one block: the
				// full Algorithm-1 pipeline per element.
				c.GlobalRead(int(blk.HighLen+7)/8 + (n*blk.B+7)/8)
				c.Op(8 * n)
				c.SharedAccess(10 * n)
				c.GlobalWrite(4 * n)
			},
			// Phase 2: binary search within the candidate block.
			func(c *gpu.Ctx) {
				i := c.GlobalID()
				if i >= len(a) {
					return
				}
				slot := int(slotOf[blockOf[i]])
				blkVals := scratch[slot*ef.BlockSize : slot*ef.BlockSize+int(scratchLen[slot])]
				found, probes := binarySearch(blkVals, a[i])
				if found {
					tail.counts[i] = 1
				}
				c.DivergentOp(probes)
				c.UncoalescedRead(4 * probes)
			},
		}, tailPhases...),
	})
	agg.Add(st2)
	agg.Phases += st2.Phases
	outBuf.Data = tail.out
	return &IntersectResult{Out: outBuf, Count: tail.total, Stats: agg}, nil
}

// upperBoundBlock returns the index of the last block of l whose first
// docID — its skip pointer, read in place — is <= v (0 if v precedes every
// block), plus the probe count.
func upperBoundBlock(l *ef.List, v uint32) (idx, probes int) {
	lo, hi := 0, l.NumBlocks()
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		if l.First(mid) <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, probes
	}
	return lo - 1, probes
}
