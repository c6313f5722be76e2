// Package pvec is an immutable vector held in fixed-size pages, so that
// a successor version shares every page it did not change with the
// version it was made from. The PForDelta baseline keeps its block table
// in it: a merge that changes the tail of a list allocates the pages it
// touches and a page table of 24 bytes per page, not a copy of the
// table. (The Elias-Fano and frequency block tables are paged the same
// way, but each of their pages also holds the words of its blocks:
// ef.Page. The document-length table packs its pages: index.LenTable.)
//
// A page holds 1<<shift elements, the last one of a vector the rest. The
// shift is given when a vector is made and inherited by every version
// made from it; the package that owns a table fixes it as a constant and
// indexes Pages() with it.
//
// Retention: a page made by Make or Splice is its own allocation, so a
// version keeps alive exactly the pages it can reach. Only Of cuts pages
// from one flat array, every one of which then keeps the whole array
// alive: it is for a table that starts a lineage (a built list's
// PForDelta table, which successors then pin once over at most) — never
// for a table made from another version, which would chain every dead
// table to the live one.
package pvec

// Vec is one version of a paged vector. It is a small value (a page
// table, a length and the shift), copied freely; the zero Vec is empty.
// Nothing reachable from a Vec is ever written once it has been handed
// out, so any number of goroutines may read it, and versions made from it,
// at once.
type Vec[T any] struct {
	pages [][]T
	n     int
	shift uint
}

// Make returns a vector of n zero elements in pages of 1<<shift. The
// caller fills it through Pages before it shares it.
func Make[T any](shift uint, n int) Vec[T] {
	v := Vec[T]{n: n, shift: shift}
	if n == 0 {
		return v // nil pages, like an empty slice that was never allocated
	}
	size := 1 << shift
	v.pages = make([][]T, (n+size-1)>>shift)
	for p := range v.pages {
		v.pages[p] = make([]T, min(size, n-p<<shift))
	}
	return v
}

// Of returns the vector whose pages are views of flat, which must never
// be written again (see the package comment for what that keeps alive).
func Of[T any](shift uint, flat []T) Vec[T] {
	v := Vec[T]{n: len(flat), shift: shift}
	if len(flat) == 0 {
		return v
	}
	size := 1 << shift
	v.pages = make([][]T, (len(flat)+size-1)>>shift)
	for p := range v.pages {
		lo := p << shift
		hi := min(lo+size, len(flat))
		v.pages[p] = flat[lo:hi:hi]
	}
	return v
}

// Len returns the number of elements.
func (v Vec[T]) Len() int { return v.n }

// Pages returns the pages in order: every one full but the last. They
// are the vector's own memory, read-only to every caller but the one
// that is still filling a vector it got from Make.
func (v Vec[T]) Pages() [][]T { return v.pages }

// Splice returns the vector of v's first k elements followed by tail's.
// The whole pages below k are shared with v; the page k falls inside, if
// it does, is copied up to k and filled on from tail, whose elements are
// copied into new pages — or, when k is a multiple of the page size,
// whose pages are shared as they are. tail must have v's shift.
func (v Vec[T]) Splice(k int, tail Vec[T]) Vec[T] {
	if k < 0 || k > v.n {
		panic("pvec: splice point out of range")
	}
	if k == 0 {
		return tail
	}
	if tail.shift != v.shift && tail.n > 0 {
		panic("pvec: splice of vectors with different page sizes")
	}
	size := 1 << v.shift
	full, r := k>>v.shift, k&(size-1)
	out := Vec[T]{n: k + tail.n, shift: v.shift}
	out.pages = make([][]T, 0, (out.n+size-1)>>v.shift)
	out.pages = append(out.pages, v.pages[:full]...)
	if r == 0 {
		out.pages = append(out.pages, tail.pages...)
		return out
	}
	// Re-page the partial page's head and the tail behind it.
	left := out.n - full<<v.shift
	var cur []T
	fill := func(src []T) {
		for len(src) > 0 {
			if len(cur) == cap(cur) {
				cur = make([]T, 0, min(size, left))
				left -= cap(cur)
				out.pages = append(out.pages, cur[:cap(cur)])
			}
			c := copy(cur[len(cur):cap(cur)], src)
			cur, src = cur[:len(cur)+c], src[c:]
		}
	}
	fill(v.pages[full][:r])
	for _, pg := range tail.pages {
		fill(pg)
	}
	return out
}
