// Package pvec is an immutable vector held in fixed-size pages, so that
// a successor version shares every page it did not change with the
// version it was made from. The index keeps its document-length table in
// it, and the PForDelta baseline its block table: a merge that changes
// the lengths of a few documents, or the tail of a list, allocates the
// pages it touches and a page table of 24 bytes per page, not a copy of
// the table. (The Elias-Fano and frequency block tables are paged the
// same way, but each of their pages also holds the words of its blocks:
// ef.Page.)
//
// A page holds 1<<shift elements, the last one of a vector the rest. The
// shift is given when a vector is made and inherited by every version
// made from it; the packages that own a table fix it as a constant, and
// their hot loops index Pages() with that constant rather than call At.
//
// Retention: a page made by Make, Splice or an Editor is its own
// allocation, so a version keeps alive exactly the pages it can reach.
// Only Of cuts pages from one flat array, every one of which then keeps
// the whole array alive: it is for a table that is a view of something
// the vector's owner holds on to anyway (a mapped file) or that starts a
// lineage (a built index's length table, a shard split's PForDelta
// tables, which successors then pin once over at most) — never for a table made
// from another version, which would chain every dead table to the live
// one.
package pvec

import "slices"

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

// At returns element i. It is the convenient form; a loop that cares
// indexes Pages with a constant shift, or walks them.
func (v Vec[T]) At(i int) T { return v.pages[i>>v.shift][i&(1<<v.shift-1)] }

// AppendTo appends the elements to dst and returns it.
func (v Vec[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, v.n)
	for _, pg := range v.pages {
		dst = append(dst, pg...)
	}
	return dst
}

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

// Editor makes successors of a vector by writing single elements: it
// starts as the vector Edit was called on and copies a page the first
// time it writes to it, so a Snapshot shares with the previous one every
// page no write fell in. An Editor lives on after a Snapshot — a table
// that is mutated under a lock and published now and then keeps one —
// and pays one page copy per page written between two snapshots. It is
// not safe for concurrent use; the vectors it returns are.
type Editor[T any] struct {
	v Vec[T]
	// own[p]: page p was allocated by this editor since the last
	// Snapshot, at full capacity and zero beyond its length: no vector
	// handed out can see it, so it is written in place.
	own []bool
	// ownTable: the same for the page table's backing array.
	ownTable bool
	// zero is the page of zeros Resize extends with, never written.
	zero []T
}

// Edit returns an editor whose contents are v's.
func (v Vec[T]) Edit() *Editor[T] {
	return &Editor[T]{v: v, own: make([]bool, len(v.pages))}
}

// Len returns the number of elements.
func (e *Editor[T]) Len() int { return e.v.n }

// At returns element i.
func (e *Editor[T]) At(i int) T { return e.v.At(i) }

// Pages returns the current contents' pages in order, to read until the
// next write: whole pages of zeros from Resize are one shared page.
func (e *Editor[T]) Pages() [][]T { return e.v.pages }

// Set stores x as element i.
func (e *Editor[T]) Set(i int, x T) {
	if i < 0 || i >= e.v.n {
		panic("pvec: set index out of range")
	}
	e.writable(i >> e.v.shift)[i&(1<<e.v.shift-1)] = x
}

// Resize cuts the contents to their first n elements, or extends them
// with zeros (whole pages of which are one shared page).
func (e *Editor[T]) Resize(n int) {
	size := 1 << e.v.shift
	np := (n + size - 1) >> e.v.shift
	switch {
	case n < e.v.n:
		if e.ownTable {
			clear(e.v.pages[np:]) // a page cut off is not kept alive by the table's spare capacity
		}
		e.v.pages, e.own = e.v.pages[:np], e.own[:np]
		if r := n & (size - 1); r != 0 {
			if pg := e.v.pages[np-1]; e.own[np-1] {
				clear(pg[r:])
				e.v.pages[np-1] = pg[:r]
			} else {
				e.table()
				e.v.pages[np-1] = pg[:r:r] // shared: to grow again it is copied
			}
		}
	case n > e.v.n:
		if last := len(e.v.pages) - 1; last >= 0 && len(e.v.pages[last]) < size {
			e.v.pages[last] = e.writable(last)[:min(size, n-last<<e.v.shift)]
		}
		for p := len(e.v.pages); p < np; p++ {
			e.table()
			if n-p<<e.v.shift >= size {
				// Every whole page of zeros is the same page, shared like
				// any other until something is written to it: a table
				// stretched over a gap costs its page table.
				if e.zero == nil {
					e.zero = make([]T, size)
				}
				e.v.pages, e.own = append(e.v.pages, e.zero), append(e.own, false)
				continue
			}
			e.v.pages = append(e.v.pages, make([]T, n-p<<e.v.shift, size))
			e.own = append(e.own, true)
		}
	}
	e.v.n = n
}

// Snapshot returns the contents as a vector. The editor stays usable
// and from here on copies whatever it writes to.
func (e *Editor[T]) Snapshot() Vec[T] {
	clear(e.own)
	e.ownTable = false
	return e.v
}

// table makes the page table writable.
func (e *Editor[T]) table() {
	if !e.ownTable {
		e.v.pages, e.ownTable = slices.Clone(e.v.pages), true
	}
}

// writable returns page p, copied first if a vector handed out shares it.
func (e *Editor[T]) writable(p int) []T {
	if !e.own[p] {
		e.table()
		pg := make([]T, len(e.v.pages[p]), 1<<e.v.shift)
		copy(pg, e.v.pages[p])
		e.v.pages[p], e.own[p] = pg, true
	}
	return e.v.pages[p]
}
