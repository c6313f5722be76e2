// Package kernels implements Griffin-GPU's device algorithms on the
// simulated SIMT device: Para-EF parallel Elias-Fano decompression
// (Algorithm 1), MergePath load-balanced parallel list intersection
// (Figures 5-6), parallel binary search over skip pointers, and the two
// GPU ranking routines (radix sort and bucketSelect) evaluated in
// Figure 7.
package kernels

import (
	"math/bits"

	"griffin/internal/bitutil"
	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// ThreadsPerBlock is the launch block size used by all kernels; it matches
// the 128-element compression block so one thread decompresses one element.
const ThreadsPerBlock = 128

// UploadEF copies a compressed Elias-Fano list to the device, charging
// PCIe transfer for its compressed size (compression ratio directly
// reduces transfer time — one of the paper's arguments for EF on GPU).
func UploadEF(s *gpu.Stream, l *ef.List) (*gpu.Buffer, error) {
	return s.H2D(l, l.CompressedBytes())
}

// paraEFShared is the per-thread-block shared memory of the Para-EF
// kernel: the popcount/prefix-sum array over 32-bit high-bits words and
// the element-to-word scheduling index (Algorithm 1's ps_array and
// index_array).
type paraEFShared struct {
	psArray    []int32
	indexArray []int32
}

// ParaEFDecompress runs Algorithm 1 on the device: one grid block per
// 128-element EF block, one thread per element. It returns a device buffer
// whose payload is the fully decompressed []uint32 docID array.
//
// Phase structure (each phase boundary is a barrier):
//
//  1. popcount: thread w computes __popc of the w-th 32-bit word of the
//     block's high-bits array (Algorithm 1 line 2).
//  2. prefix sum over the popcounts (line 3). The per-block word count is
//     at most 2*128/32+2 = 10, so the scan is done by lane 0 in shared
//     memory; the device-wide parallel scan kernel (scan.go) exists for
//     large arrays and is used by the intersection compaction.
//  3. scheduling: word w writes its word index into index_array slots
//     [ps[w-1], ps[w]) so each element knows its source word (lines 4-8).
//  4. decompress: thread i recovers high bits via an in-word select on its
//     scheduled word, fetches its low bits, concatenates, and writes the
//     final docID (lines 9-10).
//
// compressed must be a device buffer produced by UploadEF (its payload is
// the *ef.List).
func ParaEFDecompress(s *gpu.Stream, compressed *gpu.Buffer) (*gpu.Buffer, *hwmodel.LaunchStats, error) {
	l := compressed.Data.(*ef.List)
	out, err := s.Alloc(int64(l.N) * 4)
	if err != nil {
		return nil, nil, err
	}
	dst := make([]uint32, l.N)
	out.Data = dst

	if l.N == 0 {
		return out, &hwmodel.LaunchStats{}, nil
	}

	blocks := l.Blocks
	k := &gpu.Kernel{
		Name:  "para_ef_decompress",
		Grid:  len(blocks),
		Block: ThreadsPerBlock,
		// ps_array + index_array live in shared memory (§3.1.1: "We also
		// store the temporary arrays in shared memory").
		SharedBytes: 4*maxWords32PerBlock + 4*ThreadsPerBlock,
		MakeShared: func(b int) any {
			return &paraEFShared{
				psArray:    make([]int32, maxWords32PerBlock),
				indexArray: make([]int32, ThreadsPerBlock),
			}
		},
		Lane0: []bool{false, true},
		Phases: []gpu.Phase{
			// Phase 1: popcount per 32-bit word.
			func(c *gpu.Ctx) {
				blk := &blocks[c.Block]
				sh := c.Shared.(*paraEFShared)
				nw := words32(blk.HighLen)
				if c.Thread >= nw {
					return
				}
				w := highWord32(blk, c.Thread)
				sh.psArray[c.Thread] = int32(bits.OnesCount32(w))
				c.GlobalRead(4)   // load the high-bits word
				c.Op(1)           // __popc
				c.SharedAccess(4) // store ps_array[w]
			},
			// Phase 2: prefix sum of popcounts (lane 0; word count <= 10).
			func(c *gpu.Ctx) {
				blk := &blocks[c.Block]
				sh := c.Shared.(*paraEFShared)
				nw := words32(blk.HighLen)
				var acc int32
				for w := 0; w < nw; w++ {
					acc += sh.psArray[w]
					sh.psArray[w] = acc
				}
				c.Op(nw)
				c.SharedAccess(8 * nw)
			},
			// Phase 3: scheduling — word w claims index_array slots for the
			// elements it encodes.
			func(c *gpu.Ctx) {
				blk := &blocks[c.Block]
				sh := c.Shared.(*paraEFShared)
				nw := words32(blk.HighLen)
				if c.Thread >= nw {
					return
				}
				lo := int32(0)
				if c.Thread > 0 {
					lo = sh.psArray[c.Thread-1]
				}
				hi := sh.psArray[c.Thread]
				for off := lo; off < hi; off++ {
					sh.indexArray[off] = int32(c.Thread)
				}
				// Uneven per-thread loop trip counts diverge the warp.
				c.DivergentOp(int(hi - lo))
				c.SharedAccess(4 * int(hi-lo))
			},
			// Phase 4: per-element recover + concatenate + store.
			func(c *gpu.Ctx) {
				blk := &blocks[c.Block]
				i := c.Thread
				if i >= blk.N {
					return
				}
				sh := c.Shared.(*paraEFShared)
				w := int(sh.indexArray[i])
				rank := i
				if w > 0 {
					rank = i - int(sh.psArray[w-1])
				}
				word := highWord32(blk, w)
				// Select the (rank+1)-th set bit of the word; the CUDA
				// implementation uses a shared-memory lookup table (§3.1.1).
				bitPos := w*32 + bitutil.SelectInWord(uint64(word), rank)
				high := uint64(bitPos - i) // zeros before this element's 1-bit
				var low uint64
				if blk.B > 0 {
					low = bitutil.GetBits(blk.LowBits, i*blk.B, blk.B)
					c.GlobalRead(4) // low-bits fetch (consecutive threads coalesce)
				}
				dst[c.Block*ef.BlockSize+i] = blk.FirstDocID + uint32(high<<uint(blk.B)|low)
				c.SharedAccess(6) // index_array + select LUT
				c.Op(6)           // shift/or/add arithmetic
				c.GlobalWrite(4)  // final store, coalesced
			},
		},
	}
	st := s.Launch(k)
	return out, st, nil
}

// maxWords32PerBlock bounds the per-block high-bits array in 32-bit words:
// 128 ones plus at most ~128+2^6 zeros for any b chosen by the encoder; 16
// words (512 bits) is a safe ceiling (the encoder's b = floor(log2(U/n))
// keeps total high bits under 2n + n = 384 < 512).
const maxWords32PerBlock = 16

// words32 returns the number of 32-bit words covering n bits.
func words32(n int) int { return (n + 31) / 32 }

// highWord32 extracts the w-th 32-bit word of the block's high-bits array,
// mirroring the CUDA kernel's 32-bit word granularity over our 64-bit
// backing store.
func highWord32(blk *ef.Block, w int) uint32 {
	u := blk.HighBits[w/2]
	if w%2 == 1 {
		u >>= 32
	}
	return uint32(u)
}
