package kernels

import (
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// ScanExclusive computes the exclusive prefix sum of vals on the device and
// returns the per-element offsets plus the grand total: the building block
// of the radix sort's and bucketSelect's scatter passes. (The intersection
// kernels scan inside their own launch: compactTail.)
//
// Classic two-level device scan:
//
//  1. each thread block scans its 128-element tile and records the tile
//     total;
//  2. a single thread scans the tile totals (tile count is small:
//     n/128);
//  3. every element adds its tile's offset.
func ScanExclusive(s *gpu.Stream, vals []int32) ([]int32, int64, *hwmodel.LaunchStats) {
	n := len(vals)
	out := make([]int32, n)
	if n == 0 {
		return out, 0, &hwmodel.LaunchStats{}
	}
	grid := gpu.GridFor(n, ThreadsPerBlock)
	tileSums := make([]int64, grid)
	tileOffsets := make([]int64, grid)
	var total int64

	k := &gpu.Kernel{
		Name:  "scan_exclusive",
		Grid:  grid,
		Block: ThreadsPerBlock,
		Lane0: []bool{true, true},
		Phases: []gpu.Phase{
			// Phase 1: per-tile exclusive scan (lane 0 walks the tile; a
			// warp-shuffle scan on real hardware, charged as such).
			func(c *gpu.Ctx) {
				lo := c.Block * ThreadsPerBlock
				hi := lo + ThreadsPerBlock
				if hi > n {
					hi = n
				}
				var acc int64
				for i := lo; i < hi; i++ {
					out[i] = int32(acc)
					acc += int64(vals[i])
				}
				tileSums[c.Block] = acc
				c.Op(hi - lo)
				c.GlobalRead(4 * (hi - lo))
				c.SharedAccess(4 * (hi - lo))
			},
			// Phase 2: scan the tile totals.
			func(c *gpu.Ctx) {
				if c.Block != 0 {
					return
				}
				var acc int64
				for b := 0; b < grid; b++ {
					tileOffsets[b] = acc
					acc += tileSums[b]
				}
				total = acc
				c.Op(grid)
				c.GlobalRead(8 * grid)
				c.GlobalWrite(8 * grid)
			},
			// Phase 3: add tile offsets.
			func(c *gpu.Ctx) {
				i := c.GlobalID()
				if i >= n {
					return
				}
				out[i] += int32(tileOffsets[c.Block])
				c.Op(1)
				c.GlobalRead(4)
				c.GlobalWrite(4)
			},
		},
	}
	st := s.Launch(k)
	return out, total, st
}
