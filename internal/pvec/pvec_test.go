package pvec

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// version is one vector the property test made and the flat slice it
// must read as for as long as anyone holds it.
type version struct {
	v     Vec[int]
	model []int
}

func (ver version) check(t testing.TB, what string) {
	t.Helper()
	if ver.v.Len() != len(ver.model) {
		t.Errorf("%s: Len = %d, model has %d", what, ver.v.Len(), len(ver.model))
		return
	}
	if got := slices.Concat(ver.v.Pages()...); !slices.Equal(got, ver.model) {
		t.Errorf("%s: contents differ from the model\n got %v\nwant %v", what, got, ver.model)
		return
	}
	size := 1 << ver.v.shift
	for p, pg := range ver.v.Pages() {
		if last := p == len(ver.v.Pages())-1; len(pg) > size || len(pg) == 0 || (!last && len(pg) != size) {
			t.Errorf("%s: page %d of %d holds %d elements (page size %d)", what, p, len(ver.v.Pages()), len(pg), size)
			return
		}
	}
	for _, i := range []int{0, size - 1, size, len(ver.model) / 2, len(ver.model) - 1} {
		if i >= 0 && i < len(ver.model) && ver.v.At(i) != ver.model[i] {
			t.Errorf("%s: At(%d) = %d, want %d", what, i, ver.v.At(i), ver.model[i])
		}
	}
}

// interesting draws an index into [0, n] that is, more often than not, on
// or next to a page boundary or an end.
func interesting(r *rand.Rand, n, size int) int {
	var k int
	switch r.Intn(6) {
	case 0:
		k = 0
	case 1:
		k = n
	case 2:
		k = r.Intn(n + 1)
	default:
		k = r.Intn(n/size+1)*size + r.Intn(3) - 1
	}
	return min(max(k, 0), n)
}

// tailLen draws a tail length: none, less than a page, exactly a page,
// several pages.
func tailLen(r *rand.Rand, size int) int {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return 1 + r.Intn(size)
	case 2:
		return size
	default:
		return size + r.Intn(4*size)
	}
}

// TestVersionsKeepTheirValues is the model-based property: seeded random
// sequences of Splice, one-shot Editors and one long-lived Editor, each
// step held to a flat-slice model — and every earlier version held to its
// own model after 100 and more successors, while goroutines read those
// earlier versions (under -race, a successor that wrote into a page it
// shares is a reported race as well as a wrong value).
func TestVersionsKeepTheirValues(t *testing.T) {
	for _, shift := range []uint{0, 2, 3, 6} {
		versionsKeepTheirValues(t, shift)
	}
}

func versionsKeepTheirValues(t *testing.T, shift uint) {
	size := 1 << shift
	r := rand.New(rand.NewSource(int64(100 + shift)))
	next := 0 // every value written is distinct, so stale data shows
	fresh := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			next++
			out[i] = next
		}
		return out
	}

	var mu sync.Mutex
	var versions []version
	add := func(ver version, what string) {
		ver.check(t, what)
		mu.Lock()
		versions = append(versions, ver)
		mu.Unlock()
	}
	seed := fresh(3*size + 1)
	add(version{Of(shift, seed), slices.Clone(seed)}, "seed")

	// Readers: pick a version that exists and read all of it, over and
	// over, until the writer is done.
	var stop atomic.Bool
	var readers sync.WaitGroup
	defer func() {
		stop.Store(true)
		readers.Wait()
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rr := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				mu.Lock()
				ver := versions[rr.Intn(len(versions))]
				mu.Unlock()
				if ver.v.Len() != len(ver.model) || !slices.Equal(slices.Concat(ver.v.Pages()...), ver.model) {
					t.Errorf("shift %d: a version changed under a concurrent reader", shift)
					return
				}
			}
		}(int64(g))
	}

	// The long-lived editor, as ingest.Cluster keeps one: mutated step
	// by step, snapshotted now and then.
	long := versions[0].v.Edit()
	longModel := slices.Clone(versions[0].model)

	for step := 0; step < 400; step++ {
		from := versions[r.Intn(len(versions))]
		switch r.Intn(3) {
		case 0: // Splice at k with a fresh tail
			k := interesting(r, len(from.model), size)
			tail := fresh(tailLen(r, size))
			var tv Vec[int]
			if r.Intn(2) == 0 {
				tv = Of(shift, tail)
			} else {
				tv = Make[int](shift, len(tail))
				for p, pg := range tv.Pages() {
					copy(pg, tail[p<<shift:])
				}
			}
			got := from.v.Splice(k, tv)
			for p := 0; p < k>>shift; p++ {
				if &got.Pages()[p][0] != &from.v.Pages()[p][0] {
					t.Fatalf("shift %d step %d: Splice(%d) copied page %d, which lies wholly below it", shift, step, k, p)
				}
			}
			add(version{got, append(slices.Clone(from.model[:k]), tail...)}, "splice")
		case 1: // a one-shot editor: resize, then patch
			e := from.v.Edit()
			model := slices.Clone(from.model)
			var n int
			switch r.Intn(4) {
			case 0:
				n = r.Intn(size + 1) // shrink below one page
			case 1:
				n = len(model) + tailLen(r, size) // grow, across several pages at times
			default:
				n = interesting(r, len(model)+2*size, size)
			}
			e.Resize(n)
			model = append(model[:min(n, len(model))], make([]int, max(0, n-len(model)))...)
			written := map[int]bool{}
			for m := r.Intn(6); m > 0 && n > 0; m-- {
				i := interesting(r, n-1, size)
				next++
				e.Set(i, next)
				model[i] = next
				written[i>>shift] = true
			}
			got := e.Snapshot()
			for p := 0; p < min(len(got.Pages()), len(from.v.Pages())); p++ {
				whole := len(got.Pages()[p]) == len(from.v.Pages()[p])
				if shared := &got.Pages()[p][0] == &from.v.Pages()[p][0]; whole && !written[p] && !shared {
					t.Fatalf("shift %d step %d: the editor copied page %d, which nothing wrote to", shift, step, p)
				}
			}
			if e.Len() != n || (n > 0 && e.At(n-1) != model[n-1]) {
				t.Fatalf("shift %d step %d: editor reads Len %d, want %d", shift, step, e.Len(), n)
			}
			add(version{got, model}, "edit")
		default: // the long-lived editor moves on and publishes
			for m := 1 + r.Intn(4); m > 0; m-- {
				if r.Intn(3) == 0 {
					n := interesting(r, len(longModel)+2*size, size)
					long.Resize(n)
					longModel = append(longModel[:min(n, len(longModel))], make([]int, max(0, n-len(longModel)))...)
				} else if len(longModel) > 0 {
					i := interesting(r, len(longModel)-1, size)
					next++
					long.Set(i, next)
					longModel[i] = next
				}
			}
			add(version{long.Snapshot(), slices.Clone(longModel)}, "long-lived editor")
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	readers.Wait()
	// Every version, the first included, after 400 successors.
	for i, ver := range versions {
		ver.check(t, "at the end")
		if t.Failed() {
			t.Fatalf("shift %d: version %d of %d no longer reads its own values", shift, i, len(versions))
		}
	}
}

func TestSplicePanicsOnBadInput(t *testing.T) {
	v := Of(2, []int{1, 2, 3, 4, 5})
	for name, f := range map[string]func(){
		"k past the end":       func() { v.Splice(6, Vec[int]{}) },
		"negative k":           func() { v.Splice(-1, Vec[int]{}) },
		"tail of another size": func() { v.Splice(2, Of(3, []int{9})) },
		"set past the end":     func() { v.Edit().Set(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if got := slices.Concat(v.Splice(5, Vec[int]{}).Pages()...); !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("splice of nothing at the end = %v", got)
	}
}

// A successor allocates what it changes: the tail, the one page the
// splice point falls in and a page table — whatever the length of the
// vector below the splice point.
func TestSpliceAllocatesTailNotVector(t *testing.T) {
	const shift = 6
	tail := Of(shift, make([]int64, 100))
	var small, large float64
	for _, n := range []int{10_000, 1_000_000} {
		v := Make[int64](shift, n)
		k := n - 37
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			v.Splice(k, tail)
		}
		runtime.ReadMemStats(&after)
		bytes := int64(after.TotalAlloc-before.TotalAlloc) / 10
		// Tail and partial page: 3 pages of 512 B at most; table: 24 B per
		// 64 elements, rounded up to the allocator's next size.
		if ceiling := int64(3*512 + (n>>shift+3)*24*9/8 + 256); bytes > ceiling {
			t.Errorf("n=%d: Splice allocated %d bytes, want <= %d", n, bytes, ceiling)
		}
		if n == 10_000 {
			small = float64(bytes)
		} else {
			large = float64(bytes)
		}
	}
	t.Logf("Splice near the end of 10 000 / 1 000 000 elements: %.0f / %.0f bytes (a copy: 80 000 / 8 000 000)", small, large)
}

// A table stretched over a gap — document IDs assigned far past the last
// one — costs its page table: every whole page of zeros is one shared
// page until something is written to it.
func TestResizeOverAGapSharesOneZeroPage(t *testing.T) {
	const shift = 12
	e := Of(shift, make([]uint32, 5000)).Edit()
	e.Resize(4_000_000)
	e.Set(3_999_999, 7)
	e.Set(1_000_000, 9)
	v := e.Snapshot()
	distinct := map[*uint32]bool{}
	for _, pg := range v.Pages() {
		distinct[&pg[0]] = true
	}
	// The two pages of the original, the two written to, the zero page.
	if len(distinct) > 5 {
		t.Errorf("%d pages hold %d distinct allocations, want <= 5", len(v.Pages()), len(distinct))
	}
	if v.At(3_999_999) != 7 || v.At(1_000_000) != 9 || v.At(1_000_001) != 0 || v.At(2_000_000) != 0 || v.Len() != 4_000_000 {
		t.Error("a value written next to shared zeros did not stay where it was put")
	}
}
