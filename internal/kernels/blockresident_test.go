package kernels

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"griffin/internal/bitutil"
	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// perThreadParaEF is Para-EF as it ran before its phases looped over their
// block's lanes: every phase invoked once per thread (the scan by lane 0),
// every barrier device-wide, one freshly zeroed shared-memory object per
// block, every lane reporting its own counters. It is the reference the
// block-resident kernel (paraEFSIMT) is held to: same docIDs, same
// counters.
func perThreadParaEF(s *gpu.Stream, l *ef.List) ([]uint32, *hwmodel.LaunchStats) {
	type shared struct{ psArray, indexArray []int32 }
	dst := make([]uint32, l.N)
	st := s.Launch(&gpu.Kernel{
		Name:        "para_ef_decompress",
		Grid:        l.NumBlocks(),
		Block:       ThreadsPerBlock,
		SharedBytes: 4*maxWords32PerBlock + 4*ThreadsPerBlock,
		MakeShared: func(int) any {
			return &shared{make([]int32, maxWords32PerBlock), make([]int32, ThreadsPerBlock)}
		},
		Lane0: []bool{false, true},
		Phases: []gpu.Phase{
			func(c *gpu.Ctx) {
				blk, sh := l.Block(c.Block), c.Shared.(*shared)
				if c.Thread >= words32(blk.HighLen) {
					return
				}
				sh.psArray[c.Thread] = int32(bits.OnesCount32(highWord32(blk.HighBits, c.Thread)))
				c.GlobalRead(4)
				c.Op(1)
				c.SharedAccess(4)
			},
			func(c *gpu.Ctx) {
				blk, sh := l.Block(c.Block), c.Shared.(*shared)
				nw := words32(blk.HighLen)
				var acc int32
				for w := 0; w < nw; w++ {
					acc += sh.psArray[w]
					sh.psArray[w] = acc
				}
				c.Op(nw)
				c.SharedAccess(8 * nw)
			},
			func(c *gpu.Ctx) {
				blk, sh := l.Block(c.Block), c.Shared.(*shared)
				if c.Thread >= words32(blk.HighLen) {
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
				c.DivergentOp(int(hi - lo))
				c.SharedAccess(4 * int(hi-lo))
			},
			func(c *gpu.Ctx) {
				blk, sh := l.Block(c.Block), c.Shared.(*shared)
				i := c.Thread
				if i >= blk.N {
					return
				}
				w := int(sh.indexArray[i])
				rank := i
				if w > 0 {
					rank = i - int(sh.psArray[w-1])
				}
				bitPos := w*32 + bitutil.SelectInWord(uint64(highWord32(blk.HighBits, w)), rank)
				high := uint64(bitPos - i)
				var low uint64
				if blk.B > 0 {
					low = bitutil.GetBits(blk.LowBits, i*blk.B, blk.B)
					c.GlobalRead(4)
				}
				dst[c.Block*ef.BlockSize+i] = blk.FirstDocID + uint32(high<<uint(blk.B)|low)
				c.SharedAccess(6)
				c.Op(6)
				c.GlobalWrite(4)
			},
		},
	})
	return dst, st
}

func TestParaEFMatchesPerThreadKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	lists := map[string][]uint32{
		"single":     {9},
		"dense b=0":  genAscending(rng, 700, 1),
		"two blocks": genAscending(rng, 256, 40),
		"ragged":     genAscending(rng, 129, 3),
		"sparse":     genAscending(rng, 5000, 1<<18),
		"long":       genAscending(rng, 200_000, 60),
		// Blocks of very different shapes next to each other, so a block
		// finds in its worker's shared memory what a block with more
		// high-bits words and other popcounts left there.
		"mixed": append(genAscending(rng, 128*40, 1<<17)[:128*40:128*40], func() []uint32 {
			tail := genAscending(rng, 128*40+77, 1)
			for i := range tail {
				tail[i] += 1 << 30
			}
			return tail
		}()...),
	}
	for name, ids := range lists {
		for _, workers := range []int{1, 4} {
			dev := gpu.New(hwmodel.DefaultGPU(), workers)
			l, err := ef.Compress(ids)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, wantStats := perThreadParaEF(dev.NewStream(), l)
			got, st := paraEFSIMT(dev.NewStream(), l)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ids) {
				t.Fatalf("%s workers=%d: docIDs differ from the per-thread kernel's", name, workers)
			}
			if *st != *wantStats {
				t.Fatalf("%s workers=%d: counters differ from the per-thread kernel's:\n got %+v\nwant %+v", name, workers, *st, *wantStats)
			}
			// Serving charges the same counters without running a phase;
			// the device holds 4 B a posting, the payload yields them all.
			s := dev.NewStream()
			buf, err := UploadEF(s, l)
			if err != nil {
				t.Fatal(err)
			}
			out, counted, err := ParaEFDecompress(s, buf)
			if err != nil {
				t.Fatal(err)
			}
			if *counted != *wantStats {
				t.Fatalf("%s workers=%d: charged counters differ from the per-thread kernel's:\n got %+v\nwant %+v", name, workers, *counted, *wantStats)
			}
			if payload := IDs(out.Data); out.Bytes != 4*int64(len(ids)) || len(payload) != len(ids) || !reflect.DeepEqual(payload, ids) {
				t.Fatalf("%s workers=%d: output buffer of %d bytes holds %d docIDs, want %d of 4 bytes", name, workers, out.Bytes, len(payload), len(ids))
			}
		}
	}
}

// A Para-EF SIMT launch costs the host the same few allocations whether it
// decompresses one block or 4 096: the output array, the kernel, and one
// shared-memory object per host worker. One object (three allocations) per
// block made a 2 M-posting launch 47 000 allocations.
func TestParaEFAllocationsIndependentOfGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	dev := gpu.New(hwmodel.DefaultGPU(), 2)
	var perGrid []float64
	for _, n := range []int{100, 128 * 64, 128 * 4096} {
		l, _ := ef.Compress(genAscending(rng, n, 50))
		s := dev.NewStream()
		perGrid = append(perGrid, testing.AllocsPerRun(10, func() { paraEFSIMT(s, l) }))
	}
	// The single-block launch runs on one worker, the others on two: one
	// more shared-memory object and the worker goroutines.
	if perGrid[1] != perGrid[2] || perGrid[0] > perGrid[1] || perGrid[2] > 30 {
		t.Errorf("allocations per launch at 1, 64 and 4096 blocks: %v, want the last two equal and <= 30", perGrid)
	}
}

// BenchmarkParaEFHost is what one Para-EF decompression costs the host in
// serving, per posting: the counted launch, a pass over the list's block
// rows (bench/'s kernels.paraef_host_ns_per_elem).
func BenchmarkParaEFHost(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	ids := genAscending(rng, 1<<20, 30)
	l, _ := ef.Compress(ids)
	s := gpu.New(hwmodel.DefaultGPU(), 0).NewStream()
	buf, err := UploadEF(s, l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := ParaEFDecompress(s, buf)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/posting")
}
