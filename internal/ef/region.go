package ef

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Arena keeps the words of the pages its pagers close outside the Go
// heap: each page's words are copied into a region, an anonymous mapping
// of regionWords words (more for a page that needs more), which the page
// refers to (Page). The collector neither scans region memory nor counts
// it toward its goal, so a list encoded into an arena costs the heap its
// rows alone. Where nothing can be mapped the pages keep their words on
// the heap, as they do without an arena. The zero value is ready for use
// and safe for concurrent use by several pagers.
//
// A region is unmapped by a finalizer once no page refers to it, so a
// slice of a page's words is valid only while its page, or a list that
// holds it, is reachable.
type Arena struct {
	mu      sync.Mutex
	cur     *pageExt // what every page placed in the current region refers to
	free    []uint64 // the current region's words not yet taken
	regions []*region
}

// regionWords sizes a region: 4 MB.
const regionWords = 1 << 19

// regionGCBytes is how much region memory may be mapped between two
// collections this package forces. The pacer sizes its goal by the heap
// alone, and a shard list's words outweigh its rows tenfold, so a process
// that splits again and again would map region after region before the
// heap grew enough for a collection to run the finalizers that unmap the
// dropped ones.
const regionGCBytes = 64 << 20

var (
	liveRegions   atomic.Int64 // regions mapped and not yet unmapped
	mappedSinceGC atomic.Int64 // region bytes mapped since the last forced collection
)

// region is one anonymous mapping that pages' words lie in.
type region struct {
	mem []byte
}

// newRegion maps a region of at least n words, or returns nil, and its
// words.
func newRegion(n int) (*region, []uint64) {
	n = max(n, regionWords)
	if mappedSinceGC.Load() >= regionGCBytes {
		mappedSinceGC.Store(0)
		runtime.GC()
	}
	mem, words := mapWords(n)
	if mem == nil {
		return nil, nil
	}
	mappedSinceGC.Add(int64(n) * 8)
	r := &region{mem: mem}
	liveRegions.Add(1)
	runtime.SetFinalizer(r, func(r *region) {
		unmap(r.mem)
		liveRegions.Add(-1)
	})
	return r, words
}

// place copies words into the arena and returns the copy and the
// pageExt of the region it lies in: nil, nil for a nil arena, no words,
// or a failed mapping.
func (a *Arena) place(words []uint64) ([]uint64, *pageExt) {
	if a == nil || len(words) == 0 {
		return nil, nil
	}
	n := len(words)
	a.mu.Lock()
	if len(a.free) < n {
		r, w := newRegion(n)
		if r == nil {
			a.mu.Unlock()
			return nil, nil
		}
		a.cur, a.free = &pageExt{region: r}, w
		a.regions = append(a.regions, r)
	}
	dst, x := a.free[:n:n], a.cur
	a.free = a.free[n:]
	a.mu.Unlock()
	copy(dst, words)
	return dst, x
}

// Seal makes every region the arena has mapped read-only, so that a
// stray write through a page's words faults as it does on a mapped index
// file. Pages placed after Seal go into new regions.
func (a *Arena) Seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		if err := protect(r.mem); err != nil {
			return err
		}
	}
	a.cur, a.free, a.regions = nil, nil, nil
	return nil
}
