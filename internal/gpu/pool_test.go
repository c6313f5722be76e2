package gpu

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

func poolDevice(memory int64) *Device {
	m := hwmodel.DefaultGPU()
	m.MemoryBytes = memory
	return New(m, 1)
}

// The device's memory was reserved when it was created: Alloc costs no
// device time and adds nothing to the stream's batchable fixed costs, on
// a fresh device and on one whose arena is in use.
func TestArenaAllocationIsFree(t *testing.T) {
	d := poolDevice(1 << 20)
	for i := 0; i < 2; i++ {
		s := d.NewStream()
		if _, err := s.Alloc(1000); err != nil {
			t.Fatal(err)
		}
		if s.Elapsed() != 0 || s.fixed != 0 {
			t.Fatalf("alloc #%d charged %v (fixed %v)", i, s.Elapsed(), s.fixed)
		}
	}
	if d.Allocated() != 2000 || d.Reserved() != 2*bucketSize(1000) {
		t.Fatalf("two live blocks: %d live, %d reserved", d.Allocated(), d.Reserved())
	}
}

// H2D and PeerIn allocate from the arena too: each charges its transfer
// alone, the first time and every time.
func TestPoolServesTransfers(t *testing.T) {
	d := poolDevice(1 << 20)
	m := d.Model()
	for _, c := range []struct {
		name        string
		copyIn      func(*Stream) (*Buffer, error)
		took, fixed time.Duration
	}{
		{"h2d", func(s *Stream) (*Buffer, error) { return s.H2D(nil, 4096) }, m.TransferTime(4096), m.PCIeLatency},
		{"p2p", func(s *Stream) (*Buffer, error) { return s.PeerIn(nil, 4096) }, m.PeerTransferTime(4096), m.PeerLatency},
	} {
		for i := 0; i < 2; i++ {
			s := d.NewStream()
			if _, err := c.copyIn(s); err != nil {
				t.Fatal(err)
			}
			if s.Elapsed() != c.took || s.fixed != c.fixed {
				t.Fatalf("%s #%d: charged %v (fixed %v), want the transfer's %v (fixed %v)", c.name, i, s.Elapsed(), s.fixed, c.took, c.fixed)
			}
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

// Capacity is enforced on the live blocks at their bucket sizes, and Free
// gives a block's capacity back: an allocation fails exactly when the
// live blocks leave no room for its bucket.
func TestArenaOutOfMemoryOnLiveBuckets(t *testing.T) {
	const capacity = 64 << 10
	d := poolDevice(capacity)
	s := d.NewStream()

	// 17 KB rounds to an 18 KB bucket: three of them hold 54 KB.
	var bufs []*Buffer
	for i := 0; i < 3; i++ {
		b, err := s.Alloc(17 << 10)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	if d.Allocated() != 51<<10 || d.Reserved() != 54<<10 {
		t.Fatalf("three live blocks: %d live, %d reserved", d.Allocated(), d.Reserved())
	}
	// 10 KB and a byte of payload would fit next to 51 KB of payload, not
	// in the 10 KB the buckets leave: its own bucket is 11 KB.
	if _, err := s.Alloc(10<<10 + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if d.Allocated() != 51<<10 || d.Reserved() != 54<<10 {
		t.Fatalf("failed allocation moved the arena: %d live, %d reserved", d.Allocated(), d.Reserved())
	}
	last, err := s.Alloc(10 << 10)
	if err != nil {
		t.Fatalf("allocation of the remaining capacity failed: %v", err)
	}

	// Free returns capacity: the freed bucket fits a request of its size.
	bufs[0].Free()
	bufs[0].Free() // double free: a no-op
	if d.Reserved() != capacity-18<<10 {
		t.Fatalf("after free: %d reserved", d.Reserved())
	}
	if _, err := s.Alloc(18 << 10); err != nil {
		t.Fatalf("freed capacity not returned: %v", err)
	}
	if s.Elapsed() != 0 {
		t.Fatalf("allocations charged %v", s.Elapsed())
	}
	for _, b := range append(bufs[1:], last) {
		b.Free()
	}
	if d.Allocated() != 18<<10 || d.Reserved() != 18<<10 {
		t.Fatalf("after freeing all but one: %d live, %d reserved", d.Allocated(), d.Reserved())
	}
}

// Over a seeded sequence of Allocs and Frees, an allocation succeeds
// exactly when the live blocks, each at its bucket size, leave room for
// its bucket; Reserved is their sum; and the stream's clock never moves.
func TestArenaRandomSequenceAccounting(t *testing.T) {
	const capacity = 1 << 20
	d := poolDevice(capacity)
	s := d.NewStream()
	rng := rand.New(rand.NewSource(5))
	var live []*Buffer
	var buckets int64
	failed := 0
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			buckets -= bucketSize(live[j].Bytes)
			live[j].Free()
			live = append(live[:j], live[j+1:]...)
			continue
		}
		n := int64(rng.Intn(96 << 10))
		fits := buckets+bucketSize(n) <= capacity
		b, err := s.Alloc(n)
		if fits != (err == nil) || err != nil && !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("step %d: %d bytes with %d of %d reserved: err = %v", i, n, buckets, capacity, err)
		}
		if err != nil {
			failed++
			continue
		}
		live = append(live, b)
		buckets += bucketSize(n)
		if d.Reserved() != buckets {
			t.Fatalf("step %d: Reserved %d, live buckets %d", i, d.Reserved(), buckets)
		}
	}
	if s.Elapsed() != 0 || failed == 0 {
		t.Fatalf("clock %v, %d failed allocations: the sequence must reach capacity and charge nothing", s.Elapsed(), failed)
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
	if d.Allocated() != 0 || d.Reserved() != 0 {
		t.Fatalf("after concurrent load: %d live, %d reserved", d.Allocated(), d.Reserved())
	}
}
