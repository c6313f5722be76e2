package kernels

import (
	"math/bits"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// Closed-form counters of the device intersection kernels from operand
// lengths alone (Para-EF's sit beside it in paraef.go), mirroring the
// kernels' launch geometry and counter charges line by line:
// exec.Op.Estimate and sched.CostPolicy price them with KernelTime, and a
// kernel change that moves its charges moves its estimate in the same
// commit. The match-proportional terms (the staged matches and the gather,
// a few percent of a launch) are left out. An empty operand launches nothing.

// EstimateMergePath predicts the counters of IntersectMergePath's launch
// for operands of the given lengths.
func EstimateMergePath(short, long int, m *hwmodel.GPUModel) hwmodel.LaunchStats {
	total := short + long
	g := mergePathGeometry(short, long, m)
	threads := (total + g.VT - 1) / g.VT // the ones with steps to walk
	// Coarse boundaries search a range the shorter list bounds; the fine
	// search sees the shorter list's share of one tile.
	coarse := g.Blocks * bits.Len(uint(short))
	fine := threads * bits.Len(uint(g.Tile()*short/total))
	return hwmodel.LaunchStats{
		Blocks:           g.Blocks,
		ThreadsPerBlock:  ThreadsPerBlock,
		Phases:           g.Phases,
		DivergentOps:     int64(coarse),
		UncoalescedBytes: int64(8 * coarse),
		Ops:              int64(fine + total + g.Threads() + g.Blocks),
		GlobalReadBytes:  int64(8*coarse + 4*total + 8*g.Blocks),
		GlobalWriteBytes: int64(8 * g.Blocks),
		SharedBytes:      int64(4*total + 8*fine + 4*total + 12*threads + 8*g.Threads()),
	}
}

// EstimateBinarySkips predicts the counters of IntersectBinarySkips' two
// launches, skips_route then skips_probe, for a decompressed short list
// probing a compressed long one, assuming the short list's elements land
// in distinct blocks of the long list (the high-ratio case the kernel
// exists for). The launches are priced one by one: KernelTime is not
// additive across launches.
func EstimateBinarySkips(short, long int) [2]hwmodel.LaunchStats {
	numBlocks := gpu.GridFor(long, ef.BlockSize)
	needed := min(short, numBlocks)
	grid := gpu.GridFor(short, ThreadsPerBlock)
	routeProbes := short * bits.Len(uint(numBlocks))
	route := hwmodel.LaunchStats{
		Blocks:           grid,
		ThreadsPerBlock:  ThreadsPerBlock,
		Phases:           2,
		DivergentOps:     int64(routeProbes),
		UncoalescedBytes: int64(4*routeProbes + 4*short),
		Ops:              int64(short + numBlocks),
		GlobalReadBytes:  int64(4*routeProbes + 4*numBlocks),
		GlobalWriteBytes: int64(4*short + 8*needed),
	}
	grid2 := max(grid, needed)
	decoded := needed * ef.BlockSize
	blockProbes := short * bits.Len(uint(ef.BlockSize-1))
	probe := hwmodel.LaunchStats{
		Blocks:           grid2,
		ThreadsPerBlock:  ThreadsPerBlock,
		Phases:           5,
		DivergentOps:     int64(blockProbes),
		UncoalescedBytes: int64(4 * blockProbes),
		Ops:              int64(8*decoded + grid2*ThreadsPerBlock + grid2),
		// About a byte per posting of compressed input to the subset decode.
		GlobalReadBytes:  int64(decoded + 4*blockProbes + 8*grid2),
		GlobalWriteBytes: int64(4*decoded + 8*grid2),
		SharedBytes:      int64(10*decoded + 8*grid2*ThreadsPerBlock),
	}
	return [2]hwmodel.LaunchStats{route, probe}
}
