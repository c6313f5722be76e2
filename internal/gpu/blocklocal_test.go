package gpu

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// blockLocalKernel is a three-phase kernel over shared memory: phase 0
// stages per-thread values in shared memory, phase 1 (lane 0) reduces them
// into sums[block], phase 2 adds the sum the next block published. The
// barrier after phase 0 is a __syncthreads — a block reads only its own
// shared memory — and is declared so when local is set; the barrier after
// phase 1 is crossed by a read of a neighbouring block's sum and is
// declared block-local only when wrong is set, which is a kernel bug.
func blockLocalKernel(grid, block int, sums, out []int64, local, wrong bool) *Kernel {
	k := &Kernel{
		Name: "block-local", Grid: grid, Block: block,
		SharedBytes: block * 8,
		MakeShared:  func(int) any { return make([]int64, block) },
		Lane0:       []bool{false, true, false},
		Phases: []Phase{
			func(c *Ctx) {
				c.Shared.([]int64)[c.Thread] = int64(c.GlobalID())
				c.SharedAccess(8)
			},
			func(c *Ctx) {
				var sum int64
				for _, v := range c.Shared.([]int64) {
					sum += v
				}
				sums[c.Block] = sum
				c.Op(block)
				c.GlobalWrite(8)
			},
			func(c *Ctx) {
				out[c.GlobalID()] = sums[c.Block] + sums[(c.Block+1)%grid]
				c.GlobalRead(16)
			},
		},
	}
	if local {
		k.BlockLocal = []bool{true, wrong}
	}
	return k
}

// Declaring a barrier block-local changes how the host walks the grid —
// each block goes through the joined phases back to back on one worker —
// and nothing else: results, counters and modeled time are those of the
// kernel with every barrier device-wide, on one worker or many. The phase
// behind the barrier that stays device-wide reads what a neighbouring
// block wrote and must still see it.
func TestBlockLocalBarrierKeepsResultsAndCounters(t *testing.T) {
	const grid, block = 61, 64
	run := func(workers int, local bool) ([]int64, hwmodel.LaunchStats, time.Duration) {
		s := New(hwmodel.DefaultGPU(), workers).NewStream()
		sums, out := make([]int64, grid), make([]int64, grid*block)
		st := s.Launch(blockLocalKernel(grid, block, sums, out, local, false))
		return out, *st, s.Elapsed()
	}
	blockSum := func(b int) int64 { return int64(block) * int64(2*b*block+block-1) / 2 }
	wantOut, wantStats, wantTook := run(1, false)
	for i, v := range wantOut {
		if b := i / block; v != blockSum(b)+blockSum((b+1)%grid) {
			t.Fatalf("device-wide barriers: out[%d] = %d", i, v)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		out, st, took := run(workers, true)
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("workers=%d: a block-local barrier changed the result: a block missed its neighbour's sum", workers)
		}
		if st != wantStats || took != wantTook {
			t.Fatalf("workers=%d: a block-local barrier changed the launch: %+v in %v, want %+v in %v", workers, st, took, wantStats, wantTook)
		}
	}
}

// With every barrier block-local, shared memory is one object per host
// worker, not per block: a block finds there what the previous block on
// its worker left — uninitialised, as on hardware — so a kernel that
// reads only what the block itself wrote sees no difference, and the
// launch allocates the same whatever its grid.
func TestSharedMemoryPerWorkerWhenEveryBarrierIsBlockLocal(t *testing.T) {
	const block = 32
	var made atomic.Int32
	kernel := func(grid int, sums []int64) *Kernel {
		return &Kernel{
			Name: "all-local", Grid: grid, Block: block,
			SharedBytes: block * 8,
			MakeShared:  func(int) any { made.Add(1); return make([]int64, block) },
			Lane0:       []bool{false, true},
			BlockLocal:  []bool{true},
			Phases: []Phase{
				func(c *Ctx) { c.Shared.([]int64)[c.Thread] = int64(c.Block) },
				func(c *Ctx) {
					for _, v := range c.Shared.([]int64) {
						sums[c.Block] += v
					}
				},
			},
		}
	}
	for _, workers := range []int{1, 3} {
		const grid = 50
		made.Store(0)
		sums := make([]int64, grid)
		New(hwmodel.DefaultGPU(), workers).NewStream().Launch(kernel(grid, sums))
		for b, sum := range sums {
			if sum != int64(b)*block {
				t.Fatalf("workers=%d: block %d summed %d from its shared memory, want %d", workers, b, sum, int64(b)*block)
			}
		}
		if int(made.Load()) != workers {
			t.Errorf("workers=%d: %d shared-memory objects for %d blocks, want one per worker", workers, made.Load(), grid)
		}
	}

	// The allocation count of TestLaunchHostAllocations, extended to a
	// kernel with shared memory: the same at every grid size.
	s := New(hwmodel.DefaultGPU(), 1).NewStream()
	var perGrid []float64
	for _, grid := range []int{1, 64, 4096} {
		k := kernel(grid, make([]int64, grid))
		perGrid = append(perGrid, testing.AllocsPerRun(20, func() { s.Launch(k) }))
	}
	if perGrid[0] != perGrid[1] || perGrid[0] != perGrid[2] || perGrid[0] > 5 {
		t.Errorf("allocations per launch at grids 1, 64, 4096: %v, want one count, <= 5", perGrid)
	}
}

// Host scratch is per worker whatever the barriers: a kernel with a
// device-wide barrier gets one object per block for its shared memory but
// one per worker for MakeScratch, and every block, in every phase, runs
// with its worker's.
func TestScratchPerWorker(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const grid = 50
		var made atomic.Int32
		seen := make([][2]*int, grid)
		New(hwmodel.DefaultGPU(), workers).NewStream().Launch(&Kernel{
			Name: "scratch", Grid: grid, Block: 8,
			MakeScratch: func() any { made.Add(1); return new(int) },
			Lane0:       []bool{true, true},
			Phases: []Phase{
				func(c *Ctx) { seen[c.Block][0] = c.Scratch.(*int) },
				func(c *Ctx) { seen[c.Block][1] = c.Scratch.(*int) },
			},
		})
		distinct := map[*int]bool{}
		for _, s := range seen {
			distinct[s[0]], distinct[s[1]] = true, true
		}
		// A worker may find no block left to run, so fewer may be seen.
		if int(made.Load()) != workers || len(distinct) > workers || distinct[nil] {
			t.Errorf("workers=%d: %d scratch objects made, %d seen by %d blocks, want one per worker", workers, made.Load(), len(distinct), grid)
		}
	}
}

// The declaration is load-bearing: the same kernel with the crossed
// barrier wrongly declared block-local runs a block's last phase before
// the next block has published its sum. On one worker that is a
// deterministic stale read (on several it is also a data race, which
// -race reports).
func TestWronglyDeclaredBlockLocalBarrierReadsStale(t *testing.T) {
	const grid, block = 8, 16
	sums, out := make([]int64, grid), make([]int64, grid*block)
	New(hwmodel.DefaultGPU(), 1).NewStream().Launch(blockLocalKernel(grid, block, sums, out, true, true))
	if out[0] != sums[0] {
		t.Fatalf("block 0 read %d from block 1 before block 1 ran", out[0]-sums[0])
	}
}
