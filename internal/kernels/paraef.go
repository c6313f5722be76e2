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

// EstimateUploadEF is UploadEF's payload for a list of n postings when only
// its length is known: 7 bits a posting, the paper's collections (the
// serving benchmark's synthetic fixture measures 7.44). The plan layers'
// closed forms (exec.Op.Estimate, sched.CostPolicy) price uploads with it;
// admission (core.estimateDeviceCost) has the list and reads its real size.
func EstimateUploadEF(n int) int64 { return int64(n) * 7 / 8 }

// paraEFName is the Para-EF launch's name in profiles, counted or run.
const paraEFName = "para_ef_decompress"

// decoded is the payload of a Para-EF output buffer: the compressed list
// itself, standing for the docIDs it decodes to. The buffer's Bytes is
// the decoded array's 4 B a posting, which the device holds; the host
// reads the docIDs where they lie, by select or a block at a time
// (MergePath's windows), and makes a flat copy only for a consumer that
// needs the whole array (IDs).
type decoded struct{ l *ef.List }

// IDs returns the docIDs a device buffer's payload holds as one flat
// array: a flat payload itself (an intersection's matches, an uploaded
// intermediate), a decoded list decoded into a fresh array. Kernels that
// read an operand whole and the host's drain of a device list take their
// docIDs here.
func IDs(payload any) []uint32 {
	if v, ok := payload.(decoded); ok {
		return v.l.Decompress()
	}
	return payload.([]uint32)
}

// ParaEFDecompress decompresses an uploaded Elias-Fano list on the device
// with Algorithm 1 (paraEFSIMT): one grid block per 128-element EF block,
// one thread per element. Serving does not execute the kernel: its
// counters are a closed form of the list's block rows (paraEFStats), equal
// to what the SIMT kernel reports for every list the encoder makes, and
// are charged as one launch. The output buffer is allocated at the decoded
// size, 4 B a posting; its payload is a view of the compressed list.
//
// compressed must be a device buffer produced by UploadEF (its payload is
// the *ef.List).
func ParaEFDecompress(s *gpu.Stream, compressed *gpu.Buffer) (*gpu.Buffer, *hwmodel.LaunchStats, error) {
	l := compressed.Data.(*ef.List)
	out, err := s.Alloc(int64(l.N) * 4)
	if err != nil {
		return nil, nil, err
	}
	out.Data = decoded{l}
	if l.N == 0 {
		return out, &hwmodel.LaunchStats{}, nil
	}
	st := paraEFStats(l)
	s.Charge(paraEFName, st)
	return out, st, nil
}

// EstimateParaEF predicts the counters of ParaEFDecompress's launch over
// an n-posting list from its length alone: one thread per element
// streaming the compressed input in and the docIDs out, bandwidth-bound.
// The output buffer comes from the device's arena, so no allocation is
// priced.
func EstimateParaEF(n int) hwmodel.LaunchStats {
	return hwmodel.LaunchStats{
		Blocks:           (n + ef.BlockSize - 1) / ef.BlockSize,
		ThreadsPerBlock:  ThreadsPerBlock,
		Ops:              int64(6 * n),
		GlobalReadBytes:  EstimateUploadEF(n),
		GlobalWriteBytes: int64(4 * n),
	}
}

// paraEFStats returns the counters of paraEFSIMT's launch over l, phase
// by phase, from the rows alone: a block of N elements whose high bits
// span nw 32-bit words charges
//
//  1. popcount: nw word loads, nw __popc, nw ps_array stores;
//  2. prefix sum: nw adds, a read and a write of ps_array per word;
//  3. scheduling: N divergent index_array stores — the high bits hold one
//     set bit per element;
//  4. decompress: N low-bits fetches when B > 0, then 6 shared accesses,
//     6 ops and one docID store per element.
func paraEFStats(l *ef.List) *hwmodel.LaunchStats {
	elems := int64(l.N)
	var words, lowElems int64
	for i := range l.NumBlocks() {
		r, _ := l.Row(i)
		words += int64(words32(int(r.HighLen)))
		if r.B > 0 {
			lowElems += int64(r.N)
		}
	}
	return &hwmodel.LaunchStats{
		Blocks:           l.NumBlocks(),
		ThreadsPerBlock:  ThreadsPerBlock,
		Phases:           4,
		Ops:              words + words + 6*elems,
		GlobalReadBytes:  4*words + 4*lowElems,
		GlobalWriteBytes: 4 * elems,
		SharedBytes:      4*words + 8*words + 4*elems + 6*elems,
		DivergentOps:     elems,
	}
}

// paraEFShared is the per-thread-block shared memory of the Para-EF
// kernel: the popcount/prefix-sum array over 32-bit high-bits words and
// the element-to-word scheduling index (Algorithm 1's ps_array and
// index_array).
type paraEFShared struct {
	psArray    [maxWords32PerBlock]int32
	indexArray [ThreadsPerBlock]int32
}

// paraEFSIMT runs Algorithm 1 on the simulated device and returns the
// decompressed docIDs and the launch's counters. It is the checked
// implementation paraEFStats is held to in tests; serving charges the
// closed form instead (ParaEFDecompress).
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
// Every barrier is a __syncthreads — a block reads only its own shared
// memory — and every phase is invoked once per block and loops over the
// block's lanes itself (gpu.Kernel.Lane0), charging what each lane would
// have: the host executes a block per call, the way the device executes
// one per SM slot, and the counters cannot tell. l must hold a posting.
func paraEFSIMT(s *gpu.Stream, l *ef.List) ([]uint32, *hwmodel.LaunchStats) {
	dst := make([]uint32, l.N)
	k := &gpu.Kernel{
		Name:  paraEFName,
		Grid:  l.NumBlocks(),
		Block: ThreadsPerBlock,
		// ps_array + index_array live in shared memory (§3.1.1: "We also
		// store the temporary arrays in shared memory").
		SharedBytes: 4*maxWords32PerBlock + 4*ThreadsPerBlock,
		MakeShared:  func(int) any { return new(paraEFShared) },
		Lane0:       []bool{true, true, true, true},
		BlockLocal:  []bool{true, true, true},
		Phases: []gpu.Phase{
			// Phase 1: popcount per 32-bit word, lanes [0, nw).
			func(c *gpu.Ctx) {
				blk := l.Block(c.Block)
				sh := c.Shared.(*paraEFShared)
				nw := words32(blk.HighLen)
				for w := 0; w < nw; w++ {
					sh.psArray[w] = int32(bits.OnesCount32(highWord32(blk.HighBits, w)))
				}
				c.GlobalRead(4 * nw)   // load the high-bits word
				c.Op(nw)               // __popc
				c.SharedAccess(4 * nw) // store ps_array[w]
			},
			// Phase 2: prefix sum of popcounts (lane 0; word count <= 10).
			func(c *gpu.Ctx) {
				blk := l.Block(c.Block)
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
			// elements it encodes, lanes [0, nw).
			func(c *gpu.Ctx) {
				blk := l.Block(c.Block)
				sh := c.Shared.(*paraEFShared)
				nw := words32(blk.HighLen)
				lo := int32(0)
				for w := 0; w < nw; w++ {
					hi := sh.psArray[w]
					for off := lo; off < hi; off++ {
						sh.indexArray[off] = int32(w)
					}
					lo = hi
				}
				// Uneven per-thread loop trip counts diverge the warp; the
				// lanes' trips add up to the block's one-bits.
				c.DivergentOp(int(lo))
				c.SharedAccess(4 * int(lo))
			},
			// Phase 4: per-element recover + concatenate + store, lanes
			// [0, blk.N).
			func(c *gpu.Ctx) {
				blk := l.Block(c.Block)
				sh := c.Shared.(*paraEFShared)
				out := dst[c.Block*ef.BlockSize:][:blk.N]
				// Lane i selects the (rank+1)-th set bit of its scheduled word
				// w, rank = i - ps[w-1]; the CUDA implementation uses a
				// shared-memory lookup table (§3.1.1). Lanes run in order
				// here, so the lanes of one word ask for its set bits in rank
				// order: rest is the word with the bits of earlier lanes
				// cleared, and a lane's select is its lowest set bit.
				curW, rest, lowPos := -1, uint32(0), 0
				for i := range out {
					if w := int(sh.indexArray[i]); w != curW {
						curW, rest = w, highWord32(blk.HighBits, w)
						first := 0
						if w > 0 {
							first = int(sh.psArray[w-1])
						}
						for ; first < i; first++ { // none when the schedule is right
							rest &= rest - 1
						}
					}
					bitPos := curW*32 + bits.TrailingZeros32(rest)
					rest &= rest - 1
					high := uint64(bitPos - i) // zeros before this element's 1-bit
					var low uint64
					if blk.B > 0 {
						low = bitutil.GetBits(blk.LowBits, lowPos, blk.B)
						lowPos += blk.B
					}
					out[i] = blk.FirstDocID + uint32(high<<uint(blk.B)|low)
				}
				if blk.B > 0 {
					c.GlobalRead(4 * blk.N) // low-bits fetch (consecutive threads coalesce)
				}
				c.SharedAccess(6 * blk.N) // index_array + select LUT
				c.Op(6 * blk.N)           // shift/or/add arithmetic
				c.GlobalWrite(4 * blk.N)  // final store, coalesced
			},
		},
	}
	return dst, s.Launch(k)
}

// maxWords32PerBlock bounds the per-block high-bits array in 32-bit words:
// 128 ones plus at most ~128+2^6 zeros for any b chosen by the encoder; 16
// words (512 bits) is a safe ceiling (the encoder's b = floor(log2(U/n))
// keeps total high bits under 2n + n = 384 < 512).
const maxWords32PerBlock = 16

// words32 returns the number of 32-bit words covering n bits.
func words32(n int) int { return (n + 31) / 32 }

// highWord32 extracts the w-th 32-bit word of a block's high-bits array,
// mirroring the CUDA kernel's 32-bit word granularity over our 64-bit
// backing store.
func highWord32(high []uint64, w int) uint32 {
	u := high[w/2]
	if w%2 == 1 {
		u >>= 32
	}
	return uint32(u)
}
