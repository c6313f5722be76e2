package kernels

import (
	"slices"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// mergePathVTs are the values-per-thread a MergePath launch chooses from:
// the number of merge-path steps (elements from A plus elements from B)
// each thread merges serially — moderngpu's "VT".
var mergePathVTs = [...]int{32, 16, 8, 4}

// mergePathPhases is the number of barrier-delimited phases of the fused
// MergePath kernel: coarse partition, merge, and the compaction tail's
// three.
const mergePathPhases = 5

// Geometry is the launch shape of one fused device intersection, a pure
// function of the operand lengths and the device model. The kernel
// launches with it and the closed-form estimators (exec.Op.Estimate,
// sched.CostPolicy) price it, so the two cannot drift apart.
type Geometry struct {
	// VT is the number of merge-path steps one thread merges; a block's
	// tile — what its partition pair stages through shared memory
	// (GPU MergePath's sizing rule, §3.1.2) — is ThreadsPerBlock*VT steps:
	// at VT = 32 that is 4096 x 4 bytes x 2 lists = 32 KB, within the
	// K20's 48 KB per block, and it shrinks with VT.
	VT int
	// Blocks is the grid size; every block has ThreadsPerBlock threads.
	Blocks int
	// Phases is the number of barrier-delimited phases the launch pays for.
	Phases int
}

// Threads is the launch's total thread count.
func (g Geometry) Threads() int { return g.Blocks * ThreadsPerBlock }

// Tile is the number of merge-path steps one block covers.
func (g Geometry) Tile() int { return g.VT * ThreadsPerBlock }

// mergePathGeometry sizes the MergePath launch to its operands: the
// largest VT whose thread count still fills the device
// (GPUModel.SaturationThreads), else the smallest, so a 10 K-element merge
// spreads over 20 blocks instead of idling on 3 while a multi-million one
// keeps the long serial merges that amortize its partition searches.
func mergePathGeometry(lenA, lenB int, m *hwmodel.GPUModel) Geometry {
	total := lenA + lenB
	vt := mergePathVTs[len(mergePathVTs)-1]
	for _, v := range mergePathVTs {
		if (total+v-1)/v >= m.SaturationThreads {
			vt = v
			break
		}
	}
	return Geometry{VT: vt, Blocks: gpu.GridFor(total, vt*ThreadsPerBlock), Phases: mergePathPhases}
}

// IntersectResult carries the output of a device intersection: the device
// buffer holding the compacted matches and the match count. The buffer is
// allocated at the intersection's upper bound, min(|A|,|B|) elements — what
// the device's memory accounting sees — and its payload holds the Count
// matches.
type IntersectResult struct {
	Out   *gpu.Buffer
	Count int
	Stats hwmodel.LaunchStats
}

// allocOutput takes an intersection's output buffer from the device pool
// at its upper bound, before the launch, so the host never waits for the
// match total to size it. Its payload is empty until the compaction tail
// sets it to the matches.
func allocOutput(s *gpu.Stream, bound int) (*gpu.Buffer, error) {
	buf, err := s.Alloc(int64(bound) * 4)
	if err != nil {
		return nil, err
	}
	buf.Data = []uint32{}
	return buf, nil
}

// operand is one side of a device intersection as MergePath reads it: a
// flat array (a device intermediate) or a decoded view of a compressed
// list (ParaEFDecompress's payload).
type operand struct {
	flat []uint32
	l    *ef.List // the view's list; nil for a flat operand
	n    int
}

func operandOf(b *gpu.Buffer) operand {
	if v, ok := b.Data.(decoded); ok {
		return operand{l: v.l, n: v.l.N}
	}
	ids := b.Data.([]uint32)
	return operand{flat: ids, n: len(ids)}
}

// at returns element i: a select inside its EF block for a view.
func (o *operand) at(i int) uint32 {
	if o.l == nil {
		return o.flat[i]
	}
	return o.l.Get(i/ef.BlockSize, i%ef.BlockSize)
}

// window returns a plain slice w holding elements [off, off+len(w)) of
// the operand, a range that covers [lo, hi): the flat array's own
// elements, or a view's whole EF blocks over [lo, hi) decoded into
// *scratch (grown as needed, kept for the next window).
func (o *operand) window(lo, hi int, scratch *[]uint32) (w []uint32, off int) {
	if o.l == nil {
		return o.flat[lo:hi], lo
	}
	kLo, kHi := lo/ef.BlockSize, (hi+ef.BlockSize-1)/ef.BlockSize
	buf := slices.Grow((*scratch)[:0], (kHi-kLo)*ef.BlockSize)[:(kHi-kLo)*ef.BlockSize]
	n := 0
	for k := kLo; k < kHi; k++ {
		n += o.l.DecompressBlock(k, buf[n:])
	}
	*scratch = buf
	return buf[:n], kLo * ef.BlockSize
}

// mergeScratch is the host memory a MergePath block works in: the decoded
// windows of its two operands and the matches its threads find. Each host
// worker has one (gpu.Kernel.MakeScratch) that its blocks grow and reuse.
type mergeScratch struct{ a, b, found []uint32 }

// IntersectMergePath intersects two strictly-ascending device arrays —
// decoded lists or intermediates — using the GPU MergePath algorithm
// (Green, McColl, Bader — ICS 2012), the load-balanced parallel
// intersection Griffin-GPU uses when list lengths are comparable (§3.1.2).
// One intersection is one launch, its grid sized to the operands
// (mergePathGeometry).
//
// Partitioning is two-level, as in the reference CUDA implementations:
//
//  1. a coarse diagonal binary search against global memory finds each
//     thread block's boundary on the merge path (one search per tile —
//     Figure 6's cross-diagonal construction);
//  2. each block stages its partition pair into shared memory, and every
//     thread runs a fine diagonal search there for the start of its own VT
//     path steps, then walks exactly that many steps serially (Figure 5's
//     even partitions: perfectly load-balanced, no synchronization during
//     the merge).
//
// A match whose A-copy and B-copy straddle a partition boundary is claimed
// by the right-hand partition (the straddle check), keeping counts exact.
// The compaction tail (compactTail) then scans the per-thread match counts
// and gathers the matches into the dense result, inside the same launch.
//
// The host reads a decoded operand where it lies: the coarse search by
// select, and a block's partition pair — as the device stages it — by
// decoding the EF blocks under it, with one element of slack on each side
// for the straddle check and the walk's last comparison.
func IntersectMergePath(s *gpu.Stream, aBuf, bBuf *gpu.Buffer) (*IntersectResult, error) {
	a, b := operandOf(aBuf), operandOf(bBuf)
	outBuf, err := allocOutput(s, min(a.n, b.n))
	if err != nil {
		return nil, err
	}
	if a.n == 0 || b.n == 0 {
		// An empty operand matches nothing: no launch.
		return &IntersectResult{Out: outBuf}, nil
	}

	total := a.n + b.n
	g := mergePathGeometry(a.n, b.n, s.Device().Model())
	vt, tile := g.VT, g.Tile()
	blockA := make([]int32, g.Blocks+1) // coarse boundaries in A
	blockA[g.Blocks] = int32(a.n)       // the path ends having consumed A
	// staged[blk] holds block blk's matches in thread order, exactly as
	// many as it found; thread k's sit at its offset inside its tile.
	staged := make([][]uint32, g.Blocks)
	tail := newCompactTail(g.Blocks)

	tailPhases, tailLane0 := tail.phases(func(c *gpu.Ctx, k, off int, dst []uint32) {
		copy(dst, staged[k/ThreadsPerBlock][off:])
		c.GlobalRead(4 * len(dst))
	})
	k := &gpu.Kernel{
		Name:        "mergepath_intersect",
		Grid:        g.Blocks,
		Block:       ThreadsPerBlock,
		SharedBytes: 2 * tile * 4,
		MakeScratch: func() any { return new(mergeScratch) },
		Lane0:       append([]bool{true, true}, tailLane0...),
		Phases: append([]gpu.Phase{
			// Phase 1: coarse diagonal search, one boundary per block.
			func(c *gpu.Ctx) {
				i, probes := coarseSearch(&a, &b, c.Block*tile)
				blockA[c.Block] = int32(i)
				c.DivergentOp(probes)
				c.UncoalescedRead(8 * probes)
			},
			// Phase 2: stage the block's partition pair through shared
			// memory, fine-partition per thread, merge serially. Invoked
			// once per block; the loop below is the block's threads.
			func(c *gpu.Ctx) {
				blkLo := c.Block * tile
				blkHi := min(blkLo+tile, total)
				// The cooperative staging load: every element of the
				// block's A- and B-ranges moves global -> shared once,
				// coalesced. Charged once per block.
				loadBytes := 4 * (blkHi - blkLo)
				c.GlobalRead(loadBytes)
				c.SharedAccess(loadBytes)

				aLo, aHi := int(blockA[c.Block]), int(blockA[c.Block+1])
				bLo, bHi := blkLo-aLo, blkHi-aHi
				// The walk below indexes the windows: coordinates inside
				// them are the operands' minus aOff and bOff. Each window
				// starts before its range (unless at 0), so a window index
				// is positive exactly where the operand index is, and ends
				// past it (unless at the end), so it is in bounds exactly
				// where the operand index is.
				sc := c.Scratch.(*mergeScratch)
				wa, aOff := a.window(max(aLo-1, 0), min(aHi+1, a.n), &sc.a)
				wb, bOff := b.window(max(bLo-1, 0), min(bHi+1, b.n), &sc.b)
				found := sc.found[:0]
				// Threads whose diagonal lies past the block's end idle.
				for t, d := 0, blkLo; t < ThreadsPerBlock && d < blkHi; t, d = t+1, d+vt {
					// The fine diagonal search runs against the staged copy:
					// shared-memory traffic, full occupancy.
					i, probes := diagonalSearch(wa, wb, aLo-aOff, aHi-aOff, bLo-bOff, bHi-bOff, d-aOff-bOff)
					c.Op(probes)
					c.SharedAccess(8 * probes)

					// Walk the thread's steps of the path from (i, j). Ties
					// advance A first, so a match is an A-step followed by a
					// B-step.
					j := d - aOff - bOff - i
					left := min(vt, blkHi-d)
					first, iters := len(found), 0
					// Straddle check: a match split across the partition
					// boundary has its A-copy as the previous partition's last
					// step and its B-copy as this partition's first.
					if i > 0 && j < len(wb) && wb[j] == wa[i-1] {
						found = append(found, wb[j])
						j++
						left--
					}
					for left > 0 && i < len(wa) && j < len(wb) {
						iters++
						switch {
						case wa[i] < wb[j]:
							i++
							left--
						case wa[i] > wb[j]:
							j++
							left--
						case left == 1:
							// The B-copy is the next partition's first step;
							// its straddle check claims the match.
							left = 0
						default:
							found = append(found, wa[i])
							i++
							j++
							left -= 2
						}
					}
					n := len(found) - first
					tail.counts[c.Block*ThreadsPerBlock+t] = uint8(n)
					c.Op(iters)
					c.SharedAccess(4*iters + 12) // one new element per step after the first pair; the count
					c.GlobalWrite(4 * n)         // matches staged for the gather
				}
				if len(found) > 0 {
					staged[c.Block] = slices.Clone(found)
				}
				sc.found = found
			},
		}, tailPhases...),
	}
	st := s.Launch(k)
	outBuf.Data = tail.out
	return &IntersectResult{Out: outBuf, Count: tail.total, Stats: *st}, nil
}

// coarseSearch is diagonalSearch over the whole of both operands, reading
// them by random access: the coarse partition probes a few elements per
// block, where a window would decode whole blocks.
func coarseSearch(a, b *operand, d int) (i, probes int) {
	lo, hi := max(d-b.n, 0), min(d, a.n)
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		if a.at(mid) <= b.at(d-mid-1) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// diagonalSearch finds the merge-path crossing of the diagonal at combined
// offset d inside the path rectangle [aLo,aHi] x [bLo,bHi] (one tile's
// partition pair: the fine search): the number of rightward (A-consuming)
// steps in the first d path steps. Returns that count and the number of binary-search probes
// performed. The search interval is the part of the diagonal inside the
// rectangle, so its length is bounded by the rectangle's shorter side.
//
// Uses the classic merge-path invariant with the tie rule "advance A on
// equality", matching the intersection's A-first order.
func diagonalSearch(a, b []uint32, aLo, aHi, bLo, bHi, d int) (i, probes int) {
	lo := max(d-bHi, aLo)
	hi := min(d-bLo, aHi)
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		// The path takes step mid+1 from A iff a[mid] <= b[d-mid-1]; the
		// interval's bounds keep that index inside [bLo, bHi).
		if a[mid] <= b[d-mid-1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}
