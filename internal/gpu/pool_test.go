package gpu

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"griffin/internal/hwmodel"
)

func poolDevice(memory int64) *Device {
	m := hwmodel.DefaultGPU()
	m.MemoryBytes = memory
	return New(m, 1)
}

// A pool miss pays the modeled cudaMalloc; a hit costs no device time and
// adds nothing to the stream's batchable fixed costs.
func TestPoolHitIsFreeMissPays(t *testing.T) {
	d := poolDevice(1 << 20)
	s := d.NewStream()
	b, err := s.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Elapsed(), d.Model().AllocTime(1000); got != want {
		t.Fatalf("miss charged %v, want %v", got, want)
	}
	if s.fixed != d.Model().AllocOverhead {
		t.Fatalf("miss added %v to the fixed costs, want %v", s.fixed, d.Model().AllocOverhead)
	}
	b.Free()
	if d.Allocated() != 0 || d.Reserved() != bucketSize(1000) {
		t.Fatalf("after free: %d live, %d reserved", d.Allocated(), d.Reserved())
	}

	before, fixed := s.Elapsed(), s.fixed
	// Same bucket, not the same size: 1000 and 990 both round to 1024.
	b2, err := s.Alloc(990)
	if err != nil {
		t.Fatal(err)
	}
	if s.Elapsed() != before || s.fixed != fixed {
		t.Fatalf("hit charged %v (fixed %v)", s.Elapsed()-before, s.fixed-fixed)
	}
	if d.Allocated() != 990 {
		t.Fatalf("Allocated = %d, want the 990 live bytes", d.Allocated())
	}
	// The pooled block is in use: a second request of the bucket misses.
	if _, err := s.Alloc(1000); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Elapsed()-before, d.Model().AllocTime(1000); got != want {
		t.Fatalf("second miss charged %v, want %v", got, want)
	}
	if st := d.PoolStats(); st.Hits != 1 || st.Misses != 2 || st.Trims != 0 || st.Reserved != 2*bucketSize(1000) {
		t.Fatalf("stats %+v", st)
	}
	b2.Free()
	b2.Free() // double free: a no-op
	if st := d.PoolStats(); d.Allocated() != 1000 || st.Reserved != 2*bucketSize(1000) {
		t.Fatalf("after double free: %d live, stats %+v", d.Allocated(), st)
	}
}

// H2D and PeerIn allocate through the pool too: a repeat upload pays the
// transfer only.
func TestPoolServesTransfers(t *testing.T) {
	for name, copyIn := range map[string]func(*Stream) (*Buffer, error){
		"h2d": func(s *Stream) (*Buffer, error) { return s.H2D(nil, 4096) },
		"p2p": func(s *Stream) (*Buffer, error) { return s.PeerIn(nil, 4096) },
	} {
		d := poolDevice(1 << 20)
		s := d.NewStream()
		b, err := copyIn(s)
		if err != nil {
			t.Fatal(err)
		}
		first := s.Elapsed()
		b.Free()
		if _, err := copyIn(s); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Elapsed()-first, first-d.Model().AllocTime(4096); got != want {
			t.Errorf("%s: repeat transfer charged %v, want %v (the first's %v minus the cudaMalloc)", name, got, want, first)
		}
	}
}

func TestPoolBucketRounding(t *testing.T) {
	for _, n := range []int64{0, 1, 15, 16, 17, 1000, 4096, 4097, 1 << 20, 1<<20 + 1, 3_999_999_999} {
		b := bucketSize(n)
		if b < n || float64(b) > float64(n)*1.125 {
			t.Errorf("bucketSize(%d) = %d: outside [n, 1.125n]", n, b)
		}
		if bucketSize(b) != b {
			t.Errorf("bucketSize(%d) = %d is not a fixed point", n, b)
		}
	}
}

// Reserved bytes never exceed capacity: when free blocks stand in the way
// of an allocation the pool releases them and retries, and only live
// blocks can make it fail.
func TestPoolTrimsBeforeOutOfMemory(t *testing.T) {
	const capacity = 64 << 10
	d := poolDevice(capacity)
	s := d.NewStream()

	// Stock the pool with 48 KB of free 16 KB blocks.
	var bufs []*Buffer
	for i := 0; i < 3; i++ {
		b, err := s.Alloc(16 << 10)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		b.Free()
	}
	if d.Allocated() != 0 || d.Reserved() != 48<<10 {
		t.Fatalf("stocked pool: %d live, %d reserved", d.Allocated(), d.Reserved())
	}

	// 40 KB fits the device but not next to the pooled blocks: the pool
	// gives them up, as a device with no pool would never have held them.
	big, err := s.Alloc(40 << 10)
	if err != nil {
		t.Fatalf("allocation that fits an empty device failed: %v", err)
	}
	if st := d.PoolStats(); st.Trims != 1 || st.Reserved != 40<<10 {
		t.Fatalf("after trim: %+v", st)
	}
	// The trimmed blocks are gone: the next 16 KB request is a miss again.
	before := s.Elapsed()
	small, err := s.Alloc(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Elapsed() == before {
		t.Fatal("allocation after a trim was served from a released block")
	}

	// 56 KB live: nothing can be freed for another 16 KB.
	if _, err := s.Alloc(16 << 10); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if st := d.PoolStats(); st.Trims != 1 || st.Reserved > capacity {
		t.Fatalf("failed allocation moved the pool: %+v", st)
	}
	big.Free()
	small.Free()
	if d.Allocated() != 0 {
		t.Fatalf("leaked %d bytes", d.Allocated())
	}
}

// Pool decisions are a pure function of the Alloc/Free call sequence:
// replaying one sequence on two devices gives the same hits, misses,
// trims and stream clock, which is what keeps replayed timelines
// reproducible.
func TestPoolDeterministic(t *testing.T) {
	run := func() (PoolStats, []bool, int64) {
		d := poolDevice(1 << 20)
		s := d.NewStream()
		rng := rand.New(rand.NewSource(5))
		var live []*Buffer
		var missed []bool
		for i := 0; i < 2000; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				live[j].Free()
				live = append(live[:j], live[j+1:]...)
				continue
			}
			before := s.Elapsed()
			b, err := s.Alloc(int64(rng.Intn(96 << 10)))
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatal(err)
				}
				continue
			}
			live = append(live, b)
			missed = append(missed, s.Elapsed() != before)
			if r := d.Reserved(); r > 1<<20 || r < d.Allocated() {
				t.Fatalf("step %d: reserved %d with %d live of %d", i, r, d.Allocated(), 1<<20)
			}
		}
		return d.PoolStats(), missed, int64(s.Elapsed())
	}
	st1, m1, c1 := run()
	st2, m2, c2 := run()
	if st1 != st2 || c1 != c2 || len(m1) != len(m2) {
		t.Fatalf("replay diverged: %+v clock %d vs %+v clock %d", st1, c1, st2, c2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("allocation %d: miss=%v on one replay, %v on the other", i, m1[i], m2[i])
		}
	}
	if st1.Hits == 0 || st1.Misses == 0 || st1.Trims == 0 {
		t.Fatalf("sequence exercised nothing: %+v", st1)
	}
}

// Concurrent queries allocate and free on one device (run under -race):
// the accounting must balance and capacity must hold throughout.
func TestPoolConcurrentAccounting(t *testing.T) {
	const capacity = 1 << 20
	d := poolDevice(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := d.NewStream()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				b, err := s.Alloc(int64(rng.Intn(64 << 10)))
				if err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						t.Error(err)
					}
					continue
				}
				if r := d.Reserved(); r > capacity {
					t.Errorf("reserved %d > capacity", r)
				}
				b.Free()
			}
		}(g)
	}
	wg.Wait()
	st := d.PoolStats()
	if d.Allocated() != 0 || st.Reserved > capacity || st.Hits+st.Misses == 0 {
		t.Fatalf("after concurrent load: %d live, %+v", d.Allocated(), st)
	}
}
