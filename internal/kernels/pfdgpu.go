package kernels

import (
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/pfordelta"
)

// UploadPFD copies a compressed PForDelta list to the device, charging
// PCIe transfer for its compressed size.
func UploadPFD(s *gpu.Stream, l *pfordelta.List) (*gpu.Buffer, error) {
	return s.H2D(l, (l.CompressedBits()+7)/8)
}

// PFDDecompressGPU is the direct GPU port of PForDelta decompression the
// paper argues *against* (§2.3, §3.1.1): "The CPU decompression method
// PforDelta is a poor match for GPU implementation, because it maintains
// a linked list to store the exception pointers that it must process
// sequentially. This leads to slow global memory accesses and thread
// divergence."
//
// The port mirrors that structure faithfully so the claim is measurable:
//
//   - phase 1 unpacks the b-bit slots in parallel (one thread per
//     element — this part parallelizes fine);
//   - phase 2 walks each block's exception linked list *sequentially* on
//     lane 0 while the other 127 lanes idle (charged as divergent ops
//     with uncoalesced exception-table reads);
//   - phase 3 computes the block's d-gap prefix sum, again a serial
//     dependency chain on lane 0.
//
// Compare BenchmarkParaEFDecompress1M / the Figure-12 experiment: Para-EF
// needs no sequential pass, which is exactly why Griffin adopts it.
func PFDDecompressGPU(s *gpu.Stream, compressed *gpu.Buffer) (*gpu.Buffer, *hwmodel.LaunchStats, error) {
	l := compressed.Data.(*pfordelta.List)
	out, err := s.Alloc(int64(l.N) * 4)
	if err != nil {
		return nil, nil, err
	}
	dst := make([]uint32, l.N)
	out.Data = dst
	if l.N == 0 {
		return out, &hwmodel.LaunchStats{}, nil
	}

	k := &gpu.Kernel{
		Name:  "pfd_decompress_direct_port",
		Grid:  len(l.Blocks),
		Block: ThreadsPerBlock,
		Lane0: []bool{false, true, true},
		Phases: []gpu.Phase{
			// Phase 1: parallel unpack of b-bit slots (gaps or chain
			// pointers — indistinguishable until the chain walk).
			func(c *gpu.Ctx) {
				blk := &l.Blocks[c.Block]
				i := c.Thread
				if i >= blk.N {
					return
				}
				dst[c.Block*pfordelta.BlockSize+i] = unpackSlot(blk, i)
				c.GlobalRead(4)
				c.Op(4)
				c.GlobalWrite(4)
			},
			// Phase 2: the sequential exception-chain walk. One lane per
			// block follows the linked list; 127 lanes idle (the warp
			// divergence the paper calls out), and each hop is a
			// dependent, scattered read.
			func(c *gpu.Ctx) {
				blk := &l.Blocks[c.Block]
				base := c.Block * pfordelta.BlockSize
				idx := blk.FirstException
				for k := 0; k < len(blk.Exceptions); k++ {
					d := int(dst[base+idx])
					dst[base+idx] = blk.Exceptions[k]
					idx += d + 1
					// Dependent pointer chase: serialized and uncoalesced.
					c.DependentOp(3)
					c.UncoalescedRead(8)
				}
			},
			// Phase 3: serial prefix sum of the block's d-gaps (a real
			// port would use a parallel scan here, but the exception walk
			// already forced per-block serialization, and the paper's
			// complaint is about the combination).
			func(c *gpu.Ctx) {
				blk := &l.Blocks[c.Block]
				base := c.Block * pfordelta.BlockSize
				acc := blk.FirstDocID
				dst[base] = acc
				for i := 1; i < blk.N; i++ {
					acc += dst[base+i]
					dst[base+i] = acc
				}
				c.DependentOp(blk.N)
				c.GlobalRead(4 * blk.N)
				c.GlobalWrite(4 * blk.N)
			},
		},
	}
	st := s.Launch(k)
	return out, st, nil
}

// unpackSlot reads the i-th b-bit slot of the block's packed array.
func unpackSlot(blk *pfordelta.Block, i int) uint32 {
	pos := i * blk.B
	wi, off := pos/64, pos%64
	v := blk.Packed[wi] >> uint(off)
	if rem := 64 - off; blk.B > rem {
		v |= blk.Packed[wi+1] << uint(rem)
	}
	return uint32(v & ((1 << uint(blk.B)) - 1))
}
