package ef

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Arena keeps the pages its pagers close outside the Go heap: each page's
// rows and words are copied into one run of a region, an anonymous
// mapping of regionWords words (more for a page that needs more) — the
// rows first, padded to a word, then the words — and the page's Rows and
// Words are views of that run (Page). The collector neither scans region
// memory nor counts it toward its goal, so a list encoded into an arena
// costs the heap its page headers alone. The zero value is ready for use
// and safe for concurrent use by several pagers.
//
// Only rows that hold no pointer may lie in a region: the collector does
// not scan it, so a pointer stored there would not keep what it points to
// alive. Both row types, Row and the index's frequency rows, hold none
// (index.TestBlockRowsHoldNoPointers). A page placed in an arena always
// has its rows there; where nothing can be mapped, both its rows and its
// words stay on the heap, as they do without an arena.
//
// A region is unmapped by a finalizer once no page refers to it, so a
// slice of a page's rows or words, or a pointer to one of its rows, is
// valid only while its page, or a list that holds it, is reachable.
type Arena struct {
	mu      sync.Mutex
	cur     *pageExt // what every page placed in the current region refers to
	free    []uint64 // the current region's words not yet taken
	ready   int      // how many of the current region's words were asked for ahead
	regions []*region
}

// populateWords is how many words of a region the arena asks the kernel
// to fault in at a time (populate), ahead of the runs it hands out: 256 KB,
// so that a page a run is copied into has mostly been faulted in by one
// call for 64 pages, not by a trap of its own.
const populateWords = 1 << 15

// regionWords sizes a region: 4 MB.
const regionWords = 1 << 19

// regionGCBytes is how much region memory may be mapped between two
// collections this package forces. The pacer sizes its goal by the heap
// alone, and a shard list leaves the heap only its page headers, so a
// process that splits again and again would map region after region
// before the heap grew enough for a collection to run the finalizers that
// unmap the dropped ones.
const regionGCBytes = 64 << 20

var (
	liveRegions   atomic.Int64 // regions mapped and not yet unmapped
	mappedSinceGC atomic.Int64 // region bytes mapped since the last forced collection
)

// region is one anonymous mapping that pages' rows and words lie in.
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

// place copies a page's rows and words into one run of the arena's
// current region, the rows first and padded to a word, and returns views
// of the two copies, each capped at its length, and the pageExt of the
// region: nils for a nil arena or a failed mapping. R must hold no
// pointer (Arena).
func place[R any](a *Arena, rows []R, words []uint64) ([]R, []uint64, *pageExt) {
	if a == nil {
		return nil, nil, nil
	}
	var row R
	rowWords := (len(rows)*int(unsafe.Sizeof(row)) + 7) / 8
	n := rowWords + len(words)
	a.mu.Lock()
	if len(a.free) < n {
		r, w := newRegion(n)
		if r == nil {
			a.mu.Unlock()
			return nil, nil, nil
		}
		a.cur, a.free, a.ready = &pageExt{region: r}, w, 0
		a.regions = append(a.regions, r)
	}
	// The words up to the next multiple of populateWords past the run are
	// asked for ahead, unless they were already: whole pages, since each
	// ask starts where the last one ended.
	var ahead []uint64
	total := len(a.cur.region.mem) / 8
	if used := total - len(a.free); a.ready < used+n {
		end := min(total, (used+n+populateWords-1)/populateWords*populateWords)
		ahead, a.ready = a.free[a.ready-used:end-used], end
	}
	run, x := a.free[:n:n], a.cur
	a.free = a.free[n:]
	a.mu.Unlock()
	populate(ahead)
	dst := unsafe.Slice((*R)(unsafe.Pointer(unsafe.SliceData(run))), len(rows))
	copy(dst, rows)
	w := run[rowWords:]
	copy(w, words)
	return dst, w, x
}

// Seal makes every region the arena has mapped read-only, so that a
// stray write through a page's rows or words faults as it does on a
// mapped index file. Pages placed after Seal go into new regions.
func (a *Arena) Seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		if err := protect(r.mem); err != nil {
			return err
		}
	}
	a.cur, a.free, a.ready, a.regions = nil, nil, 0, nil
	return nil
}
