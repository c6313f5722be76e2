package kernels

import (
	"math/bits"
	"time"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// Closed-form costs of the device kernels, computed from operand lengths
// alone. They live next to the kernels because they mirror the kernels'
// launch geometry and counter charges line by line: exec.Op.Estimate and
// sched.CostPolicy price plans with them, and a kernel change that moves
// the modeled time moves its estimate in the same commit. The match count
// is unknown before execution, so the terms proportional to it (the staged
// matches and the gather) are left out; they are a few percent of a launch.

// EstimateMergePath predicts IntersectMergePath's modeled time for operands
// of the given lengths.
func EstimateMergePath(short, long int, m *hwmodel.GPUModel) time.Duration {
	if short == 0 {
		return 0
	}
	total := short + long
	g := MergePathGeometry(short, long, m)
	threads := (total + g.VT - 1) / g.VT // the ones with steps to walk
	// Coarse boundaries search a range the shorter list bounds; the fine
	// search sees the shorter list's share of one tile.
	coarse := g.Blocks * bits.Len(uint(short))
	fine := threads * bits.Len(uint(g.Tile()*short/total))
	st := hwmodel.LaunchStats{
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
	return m.KernelTime(&st)
}

// EstimateBinarySkips predicts IntersectBinarySkips' modeled time for a
// decompressed short list probing a compressed long one: its two launches,
// assuming the short list's elements land in distinct blocks of the long
// list (the high-ratio case the kernel exists for).
func EstimateBinarySkips(short, long int, m *hwmodel.GPUModel) time.Duration {
	if short == 0 || long == 0 {
		return 0
	}
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
	return m.KernelTime(&route) + m.KernelTime(&probe)
}
