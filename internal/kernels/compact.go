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
// loops over its block's threads in order, so a thread's offset inside its
// tile is the sum of the counts before it, and charges each one's counters.
//
// The device buffer is allocated before the launch at the intersection's
// upper bound; the tile-total scan makes the host array the gather writes,
// out, at the total. A tail built for fewer blocks than the launch has
// covers the leading ones: the rest of the grid can hold no matches and
// idles through the three phases.
type compactTail struct {
	// counts[k] is the number of matches global thread k found. The
	// producing phase writes it; threads that write nothing count zero. A
	// thread finds at most 1 + VT/2 <= 17 (MergePath) or 1 (one thread per
	// element), so the host keeps a byte where the device keeps a word.
	counts []uint8
	// tiles[b] is tile b's match total after the tile scan and its offset
	// in the output after the tile-total scan.
	tiles []int32
	// total is the match count and out the matches, valid after the
	// launch.
	total int
	out   []uint32
}

func newCompactTail(grid int) *compactTail {
	return &compactTail{counts: make([]uint8, grid*ThreadsPerBlock), tiles: make([]int32, grid)}
}

// phases returns the tail's three phases and their Lane0 flags. emit copies
// global thread k's matches into dst (len(dst) == counts[k] > 0) — off is
// where they start inside the thread's tile — and charges the read of
// wherever the producing phase staged them; the tail charges the ordered
// write.
func (t *compactTail) phases(emit func(c *gpu.Ctx, k, off int, dst []uint32)) ([]gpu.Phase, []bool) {
	grid := len(t.tiles)
	tileScan := func(c *gpu.Ctx) {
		if c.Block >= grid {
			return
		}
		lo := c.Block * ThreadsPerBlock
		var acc int32
		for _, n := range t.counts[lo : lo+ThreadsPerBlock] {
			acc += int32(n)
		}
		t.tiles[c.Block] = acc
		c.Op(ThreadsPerBlock)
		c.SharedAccess(8 * ThreadsPerBlock) // counts in, offsets out
		c.GlobalWrite(4)                    // the tile total
	}
	totalScan := func(c *gpu.Ctx) {
		if c.Block != 0 {
			return
		}
		var acc int32
		for b, n := range t.tiles {
			t.tiles[b] = acc
			acc += n
		}
		t.total = int(acc)
		t.out = make([]uint32, t.total)
		c.Op(grid)
		c.GlobalRead(4 * grid)
		c.GlobalWrite(4 * grid)
	}
	gather := func(c *gpu.Ctx) {
		if c.Block >= grid {
			return
		}
		c.GlobalRead(4) // the tile's offset, broadcast to the block
		lo, base, off := c.Block*ThreadsPerBlock, int(t.tiles[c.Block]), 0
		for k := lo; k < lo+ThreadsPerBlock; k++ {
			n := int(t.counts[k])
			if n == 0 {
				continue
			}
			emit(c, k, off, t.out[base+off:base+off+n])
			off += n
			c.SharedAccess(4) // the thread's offset
			c.Op(n)
			c.GlobalWrite(4 * n)
		}
	}
	return []gpu.Phase{tileScan, totalScan, gather}, []bool{true, true, true}
}
