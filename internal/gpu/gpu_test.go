package gpu

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

func newTestDevice() *Device {
	return New(hwmodel.DefaultGPU(), 0)
}

func TestAllocAccounting(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	b1, err := s.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Alloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Allocated(); got != 3<<20 {
		t.Fatalf("Allocated = %d, want %d", got, 3<<20)
	}
	b1.Free()
	if got := d.Allocated(); got != 2<<20 {
		t.Fatalf("after free: %d, want %d", got, 2<<20)
	}
	b1.Free() // double free is a no-op
	if got := d.Allocated(); got != 2<<20 {
		t.Fatalf("double free changed accounting: %d", got)
	}
	b2.Free()
	if got := d.Allocated(); got != 0 {
		t.Fatalf("after all frees: %d", got)
	}
}

func TestOutOfMemory(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	if _, err := s.Alloc(d.Model().MemoryBytes + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Fill most of memory, then overflow.
	b, err := s.Alloc(d.Model().MemoryBytes - 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(200); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	b.Free()
	if _, err := s.Alloc(200); err != nil {
		t.Fatalf("after free: %v", err)
	}
}

func TestStreamClockAdvances(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	if s.Elapsed() != 0 {
		t.Fatal("fresh stream clock not zero")
	}
	if _, err := s.H2D(make([]uint32, 1024), 4096); err != nil {
		t.Fatal(err)
	}
	afterH2D := s.Elapsed()
	if afterH2D < d.Model().PCIeLatency {
		t.Fatalf("H2D charged %v, below PCIe latency", afterH2D)
	}
	s.AddTime(time.Millisecond)
	if s.Elapsed() != afterH2D+time.Millisecond {
		t.Fatal("AddTime did not advance clock")
	}
}

func TestD2HReturnsPayloadAndCharges(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	payload := []uint32{1, 2, 3}
	b, err := s.H2D(payload, 12)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Elapsed()
	got := s.D2H(b, 12)
	if s.Elapsed() <= before {
		t.Fatal("D2H did not charge time")
	}
	if &got.([]uint32)[0] != &payload[0] {
		t.Fatal("D2H payload mismatch")
	}
}

func TestKernelExecutesAllThreads(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	const grid, block = 37, 64
	seen := make([]int32, grid*block)
	s.Launch(&Kernel{
		Name: "touch", Grid: grid, Block: block,
		Phases: []Phase{func(c *Ctx) {
			atomic.AddInt32(&seen[c.GlobalID()], 1)
		}},
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("thread %d executed %d times", i, v)
		}
	}
}

// A Lane0 phase is invoked once per block, as thread 0, and the launch
// reports the counters and the modeled time of the same kernel written
// with a thread-0 guard in a per-thread phase.
func TestLane0PhaseRunsOncePerBlock(t *testing.T) {
	d := newTestDevice()
	const grid, block = 19, 128
	launch := func(lane0 bool) (calls [2]int64, st *hwmodel.LaunchStats, took time.Duration) {
		s := d.NewStream()
		k := &Kernel{
			Name: "tile-scan", Grid: grid, Block: block,
			Phases: []Phase{
				func(c *Ctx) { // per thread in both variants
					atomic.AddInt64(&calls[0], 1)
					c.GlobalRead(4)
				},
				func(c *Ctx) {
					atomic.AddInt64(&calls[1], 1)
					if c.Thread != 0 {
						return
					}
					c.Op(block)
					c.SharedAccess(4 * block)
					c.GlobalWrite(8 + c.Block)
				},
			},
		}
		if lane0 {
			k.Lane0 = []bool{false, true}
		}
		st = s.Launch(k)
		return calls, st, s.Elapsed()
	}
	guarded, wantStats, wantTook := launch(false)
	once, gotStats, gotTook := launch(true)
	if guarded != [2]int64{grid * block, grid * block} {
		t.Fatalf("per-thread phases ran %v times", guarded)
	}
	if once != [2]int64{grid * block, grid} {
		t.Fatalf("Lane0 phase ran %d times for %d blocks (per-thread phase: %d)", once[1], grid, once[0])
	}
	if *gotStats != *wantStats || gotTook != wantTook {
		t.Fatalf("Lane0 changed the launch: %+v in %v, want %+v in %v", *gotStats, gotTook, *wantStats, wantTook)
	}
}

func TestKernelPhasesAreBarriers(t *testing.T) {
	// Phase 1 writes per-thread values; phase 2 reads values written by
	// *other* blocks. Correct only if a device-wide barrier separates the
	// phases.
	d := newTestDevice()
	s := d.NewStream()
	const grid, block = 64, 128
	n := grid * block
	data := make([]int64, n)
	ok := make([]int32, n)
	s.Launch(&Kernel{
		Name: "barrier", Grid: grid, Block: block,
		Phases: []Phase{
			func(c *Ctx) { data[c.GlobalID()] = int64(c.GlobalID()) * 3 },
			func(c *Ctx) {
				// Read a value owned by a different block.
				peer := (c.GlobalID() + block*7) % n
				if data[peer] == int64(peer)*3 {
					ok[c.GlobalID()] = 1
				}
			},
		},
	})
	for i, v := range ok {
		if v != 1 {
			t.Fatalf("thread %d observed stale cross-block data", i)
		}
	}
}

func TestSharedMemoryPerBlock(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	const grid, block = 16, 32
	sums := make([]int64, grid)
	s.Launch(&Kernel{
		Name: "shared", Grid: grid, Block: block,
		SharedBytes: block * 8,
		MakeShared:  func(b int) any { return make([]int64, block) },
		Phases: []Phase{
			func(c *Ctx) {
				sh := c.Shared.([]int64)
				sh[c.Thread] = int64(c.Block)
			},
			func(c *Ctx) {
				if c.Thread != 0 {
					return
				}
				sh := c.Shared.([]int64)
				var sum int64
				for _, v := range sh {
					sum += v
				}
				sums[c.Block] = sum
			},
		},
	})
	for b, sum := range sums {
		if sum != int64(b)*block {
			t.Fatalf("block %d shared sum = %d, want %d", b, sum, int64(b)*block)
		}
	}
}

func TestLaunchStatsCollected(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	const grid, block = 8, 32
	st := s.Launch(&Kernel{
		Name: "count", Grid: grid, Block: block,
		Phases: []Phase{func(c *Ctx) {
			c.Op(3)
			c.GlobalRead(4)
			c.GlobalWrite(8)
			c.SharedAccess(2)
			c.DivergentOp(1)
			c.UncoalescedRead(4)
		}},
	})
	n := int64(grid * block)
	if st.Ops != 3*n {
		t.Errorf("Ops = %d, want %d", st.Ops, 3*n)
	}
	if st.GlobalReadBytes != 8*n { // 4 coalesced + 4 uncoalesced
		t.Errorf("GlobalReadBytes = %d, want %d", st.GlobalReadBytes, 8*n)
	}
	if st.GlobalWriteBytes != 8*n {
		t.Errorf("GlobalWriteBytes = %d, want %d", st.GlobalWriteBytes, 8*n)
	}
	if st.SharedBytes != 2*n {
		t.Errorf("SharedBytes = %d, want %d", st.SharedBytes, 2*n)
	}
	if st.DivergentOps != n {
		t.Errorf("DivergentOps = %d, want %d", st.DivergentOps, n)
	}
	if st.UncoalescedBytes != 4*n {
		t.Errorf("UncoalescedBytes = %d, want %d", st.UncoalescedBytes, 4*n)
	}
	if st.Phases != 1 || st.Blocks != grid || st.ThreadsPerBlock != block {
		t.Errorf("geometry: %+v", st)
	}
}

func TestLaunchChargesTime(t *testing.T) {
	d := newTestDevice()
	s := d.NewStream()
	before := s.Elapsed()
	s.Launch(&Kernel{Name: "noop", Grid: 1, Block: 1, Phases: []Phase{func(c *Ctx) {}}})
	if s.Elapsed()-before < d.Model().LaunchOverhead {
		t.Fatal("launch did not charge at least the launch overhead")
	}
	if d.Launches() != 1 {
		t.Fatalf("Launches = %d, want 1", d.Launches())
	}
}

// A launch costs the host a fixed, small number of allocations whatever
// the grid: the returned counters and one context per host worker. The
// simulator's wall clock depends on it (every modeled kernel of every
// query pays this), so the count is pinned.
func TestLaunchHostAllocations(t *testing.T) {
	d := New(hwmodel.DefaultGPU(), 1)
	s := d.NewStream()
	for _, grid := range []int{1, 64} {
		k := &Kernel{Name: "noop", Grid: grid, Block: 128, Phases: []Phase{func(c *Ctx) { c.Op(1) }, func(c *Ctx) { c.GlobalRead(4) }}}
		if got := testing.AllocsPerRun(100, func() { s.Launch(k) }); got > 3 {
			t.Errorf("grid %d: %v allocations per launch, want <= 3", grid, got)
		}
	}
}

func TestStreamsIndependentClocks(t *testing.T) {
	d := newTestDevice()
	s1, s2 := d.NewStream(), d.NewStream()
	if _, err := s1.H2D(nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	if s2.Elapsed() != 0 {
		t.Fatal("stream clocks are not independent")
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 8} {
			hits := make([]int32, n)
			parallelFor(n, workers, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestGridFor(t *testing.T) {
	cases := []struct{ n, block, want int }{
		{0, 128, 1}, {1, 128, 1}, {128, 128, 1}, {129, 128, 2}, {1000, 256, 4},
	}
	for _, c := range cases {
		if got := GridFor(c.n, c.block); got != c.want {
			t.Errorf("GridFor(%d,%d) = %d, want %d", c.n, c.block, got, c.want)
		}
	}
}

func BenchmarkLaunchOverheadFunctional(b *testing.B) {
	d := newTestDevice()
	s := d.NewStream()
	k := &Kernel{Name: "noop", Grid: 64, Block: 128, Phases: []Phase{func(c *Ctx) { c.Op(1) }}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Launch(k)
	}
}
