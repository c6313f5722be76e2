package kernels

import "griffin/internal/gpu"

// compactTail is the tail every fused intersection kernel ends with: three
// phases that turn the per-thread match counts an earlier phase of the
// same launch produced into one dense, ordered output, without returning
// to the host in between.
//
//  1. tile scan: every block scans its threads' counts (a warp-shuffle
//     scan on real hardware; lane 0 walks the tile here and is charged as
//     such) and publishes the tile total;
//  2. tile-total scan: a single thread scans the tile totals — a grid is
//     at most a few thousand tiles — and publishes the match total;
//  3. gather: thread k copies its counts[k] matches to
//     out[tileOffset+offset[k]:], so the output keeps thread order.
//
// All three are invoked once per block (gpu.Kernel.Lane0); the gather
// loops over its block's threads and charges each one's counters.
//
// The output buffer is allocated before the launch at the intersection's
// upper bound; nothing here needs the total to size anything. A tail built
// for fewer blocks than the launch has covers the leading ones: the rest of
// the grid can hold no matches and idles through the three phases.
type compactTail struct {
	// counts[k] is the number of matches global thread k found. The
	// producing phase writes it; threads that write nothing count zero.
	counts []int32
	// offsets[k] is thread k's exclusive offset inside its tile.
	offsets     []int32
	tileSums    []int32
	tileOffsets []int32
	// total is the match count, valid after the launch.
	total int
}

func newCompactTail(grid int) *compactTail {
	// One backing array for the two per-thread and the two per-tile
	// arrays: the tail runs once per intersection.
	threads := grid * ThreadsPerBlock
	buf := make([]int32, 2*threads+2*grid)
	return &compactTail{
		counts:      buf[:threads],
		offsets:     buf[threads : 2*threads],
		tileSums:    buf[2*threads : 2*threads+grid],
		tileOffsets: buf[2*threads+grid:],
	}
}

// phases returns the tail's three phases and their Lane0 flags. emit copies
// global thread k's matches into dst (len(dst) == counts[k] > 0) and
// charges the read of wherever the producing phase staged them; the tail
// charges the ordered write.
func (t *compactTail) phases(out []uint32, emit func(c *gpu.Ctx, k int, dst []uint32)) ([]gpu.Phase, []bool) {
	grid := len(t.tileSums)
	tileScan := func(c *gpu.Ctx) {
		if c.Block >= grid {
			return
		}
		lo := c.Block * ThreadsPerBlock
		var acc int32
		for k := lo; k < lo+ThreadsPerBlock; k++ {
			t.offsets[k] = acc
			acc += t.counts[k]
		}
		t.tileSums[c.Block] = acc
		c.Op(ThreadsPerBlock)
		c.SharedAccess(8 * ThreadsPerBlock) // counts in, offsets out
		c.GlobalWrite(4)                    // the tile total
	}
	totalScan := func(c *gpu.Ctx) {
		if c.Block != 0 {
			return
		}
		var acc int32
		for b := 0; b < grid; b++ {
			t.tileOffsets[b] = acc
			acc += t.tileSums[b]
		}
		t.total = int(acc)
		c.Op(grid)
		c.GlobalRead(4 * grid)
		c.GlobalWrite(4 * grid)
	}
	gather := func(c *gpu.Ctx) {
		if c.Block >= grid {
			return
		}
		c.GlobalRead(4) // the tile's offset, broadcast to the block
		lo := c.Block * ThreadsPerBlock
		for k := lo; k < lo+ThreadsPerBlock; k++ {
			n := int(t.counts[k])
			if n == 0 {
				continue
			}
			at := int(t.tileOffsets[c.Block] + t.offsets[k])
			emit(c, k, out[at:at+n])
			c.SharedAccess(4) // the thread's offset
			c.Op(n)
			c.GlobalWrite(4 * n)
		}
	}
	return []gpu.Phase{tileScan, totalScan, gather}, []bool{true, true, true}
}
