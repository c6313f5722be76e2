package index

import (
	"math/bits"
	"slices"

	"griffin/internal/bitutil"
)

// DocLenShift sizes the pages of a LenTable: 4 096 lengths — a merge
// copies one per page a mutated document falls in. A constant, not a
// setting: DocLen, which scoring calls per candidate, indexes with it.
const DocLenShift = 12

const lenPageSize = 1 << DocLenShift

// LenTable is a document-length table: the token length of document d
// at position d, 0 for a docID the collection does not hold. It is held
// in pages of 1<<DocLenShift lengths, each packed at the width of its
// own largest length — bits.Len32, so a page of zeros holds no words —
// and a merged segment shares with the one it was merged from every page
// no mutated document fell in. The zero LenTable is empty. Nothing
// reachable from a LenTable is written once it has been handed out, so
// any number of goroutines may read it at once.
type LenTable struct {
	pages []lenPage
	n     int
}

// lenPage is one page of a LenTable: its i-th length is the width-bit
// field at bit i*width of words. words runs on at least one word past
// the last field — the next page's first word, the trailing zero word of
// the file or of the table NewLenTable packed, or a zero word of its own
// — so that At reads any field as the same two words, and every bit
// between the last field and that word is zero.
type lenPage struct {
	words []uint64
	width uint
}

// zeroWords are the words of every page of width 0: At reads two of
// them. Nothing ever writes them.
var zeroWords = make([]uint64, 2)

// packedWords is the number of words that n fields of width bits fill.
func packedWords(n int, width uint) int { return (n*int(width) + 63) >> 6 }

// lenWidth is the width of a page holding lens: that of the largest.
func lenWidth(lens []uint32) uint {
	var or uint32
	for _, l := range lens {
		or |= l
	}
	return uint(bits.Len32(or))
}

// NewLenTable packs lens into a table. Its pages are views of one
// allocation, which every version made from it keeps alive (as an opened
// index's are views of the mapping).
func NewLenTable(lens []uint32) LenTable {
	t := LenTable{n: len(lens)}
	if len(lens) == 0 {
		return t
	}
	t.pages = make([]lenPage, (len(lens)+lenPageSize-1)>>DocLenShift)
	total := 0
	for p := range t.pages {
		t.pages[p].width = lenWidth(lens[p<<DocLenShift : t.end(p)])
		total += packedWords(t.count(p), t.pages[p].width)
	}
	words := make([]uint64, total+1) // the trailing word every last field reads
	at := 0
	for p := range t.pages {
		pg := &t.pages[p]
		if pg.width == 0 {
			pg.words = zeroWords
			continue
		}
		k := packedWords(t.count(p), pg.width)
		bitutil.Pack(words[at:at+k], lens[p<<DocLenShift:t.end(p)], int(pg.width))
		pg.words = words[at : at+k+1 : at+k+1]
		at += k
	}
	return t
}

// Len returns the number of lengths, the collection's docID range.
func (t LenTable) Len() int { return t.n }

// NumPages returns the number of pages: every one full but the last.
func (t LenTable) NumPages() int { return len(t.pages) }

// Page returns page p's words and the width of its lengths: its i-th
// length is the width-bit field at bit i*width of words (bitutil.Unpack
// reads them all), and a page of width 0 holds only zeros. The words are
// the table's own memory and run on past the page's lengths: read-only.
func (t LenTable) Page(p int) (words []uint64, width int) {
	return t.pages[p].words, int(t.pages[p].width)
}

// count returns the number of lengths page p holds.
func (t LenTable) count(p int) int { return t.end(p) - p<<DocLenShift }

// end returns 1 + the last docID page p holds.
func (t LenTable) end(p int) int { return min((p+1)<<DocLenShift, t.n) }

// At returns document d's length, 0 past the end of the table. It reads
// the field as two words whatever its position — a shift by 64 is 0 in
// Go, and the word past every page keeps the second read in range — so
// the only branch is the range check.
func (t LenTable) At(d uint32) uint32 {
	if int(d) >= t.n {
		return 0
	}
	pg := &t.pages[d>>DocLenShift]
	bit := uint(d&(lenPageSize-1)) * pg.width
	i, o := bit>>6, bit&63
	return uint32((pg.words[i]>>o | pg.words[i+1]<<(64-o)) & (1<<pg.width - 1))
}

// LenEditor makes successors of a LenTable by writing single lengths: it
// starts as the table Edit was called on and copies a page the first
// time it writes to it — re-packing it wider when a length outgrows the
// page's width — so a Snapshot shares with the previous one every page no
// write fell in. An editor lives on after a Snapshot (a table that is
// mutated under a lock and published now and then keeps one) and pays one
// page copy per page written between two snapshots. It is not safe for
// concurrent use; the tables it returns are.
type LenEditor struct {
	t LenTable
	// own[p]: page p was allocated by this editor since the last
	// Snapshot, so no table handed out can see it and it is written in
	// place. A page of width 0 is never owned: it is zeroWords.
	own []bool
	// ownTable: the same for the page table's backing array.
	ownTable bool
	buf      [lenPageSize]uint32 // a page unpacked, to re-pack it
}

// Edit returns an editor whose contents are t's.
func (t LenTable) Edit() *LenEditor {
	return &LenEditor{t: t, own: make([]bool, len(t.pages))}
}

// Len returns the number of lengths.
func (e *LenEditor) Len() int { return e.t.n }

// At returns document d's length, 0 past the end.
func (e *LenEditor) At(d uint32) uint32 { return e.t.At(d) }

// Table returns the current contents, to read until the next write.
func (e *LenEditor) Table() LenTable { return e.t }

// Set stores l as document d's length; d must be below Len.
func (e *LenEditor) Set(d uint32, l uint32) {
	if int(d) >= e.t.n {
		panic("index: length set past the end of the table")
	}
	if e.t.At(d) == l {
		return // a page is not copied to write what it holds
	}
	p := int(d >> DocLenShift)
	if w := uint(bits.Len32(l)); w > e.t.pages[p].width {
		e.repack(p, e.t.count(p), w)
	} else if !e.own[p] {
		e.repack(p, e.t.count(p), e.t.pages[p].width)
	}
	pg := &e.t.pages[p]
	bit := uint(d&(lenPageSize-1)) * pg.width
	i, o := bit>>6, bit&63
	mask := uint64(1)<<pg.width - 1
	pg.words[i] = pg.words[i]&^(mask<<o) | uint64(l)<<o
	if o+pg.width > 64 { // the field runs on into the next word, which the page owns
		pg.words[i+1] = pg.words[i+1]&^(mask>>(64-o)) | uint64(l)>>(64-o)
	}
}

// Resize cuts the contents to their first n lengths, or extends them
// with zeros — pages of width 0, which hold no words: a table stretched
// over a docID gap costs its page table.
func (e *LenEditor) Resize(n int) {
	np := (n + lenPageSize - 1) >> DocLenShift
	switch {
	case n < e.t.n:
		if e.ownTable {
			clear(e.t.pages[np:]) // a page cut off is not kept alive by the table's spare capacity
		}
		e.t.pages, e.own = e.t.pages[:np], e.own[:np]
		if r := n & (lenPageSize - 1); r != 0 && e.t.pages[np-1].width > 0 {
			e.repack(np-1, r, e.t.pages[np-1].width) // no field past the end may stay set
		}
	case n > e.t.n:
		if last := len(e.t.pages) - 1; last >= 0 && e.t.count(last) < lenPageSize && e.t.pages[last].width > 0 {
			c, pg := min(lenPageSize, n-last<<DocLenShift), &e.t.pages[last]
			if k := packedWords(c, pg.width) + 1; e.own[last] && k <= cap(pg.words) {
				pg.words = pg.words[:k] // zeros: a page is allocated whole and written only below its end
			} else {
				e.repack(last, c, pg.width)
			}
		}
		if old := len(e.t.pages); np > old {
			if !e.ownTable || np > cap(e.t.pages) || np > cap(e.own) {
				// The page table is reallocated once to its new length, or
				// to twice its old one so that docIDs added one after
				// another copy it amortized — not doubled step by step
				// across a wide docID gap.
				size := max(np, 2*old)
				pages, own := make([]lenPage, old, size), make([]bool, old, size)
				copy(pages, e.t.pages)
				copy(own, e.own)
				e.t.pages, e.own, e.ownTable = pages, own, true
			}
			e.t.pages, e.own = e.t.pages[:np], e.own[:np]
			for p := old; p < np; p++ {
				e.t.pages[p], e.own[p] = lenPage{words: zeroWords}, false
			}
		}
	}
	e.t.n = n
}

// Snapshot returns the contents as a table, each page it wrote re-packed
// at the width of its largest length — the width NewLenTable gives the
// same lengths, so the two serialize alike. The editor stays usable and
// from here on copies whatever it writes to.
func (e *LenEditor) Snapshot() LenTable {
	for p, own := range e.own {
		if !own {
			continue
		}
		pg, c := e.t.pages[p], e.t.count(p)
		bitutil.Unpack(e.buf[:c], pg.words, int(pg.width))
		if w := lenWidth(e.buf[:c]); w != pg.width {
			e.repack(p, c, w)
		}
	}
	clear(e.own)
	e.ownTable = false
	return e.t
}

// table makes the page table writable.
func (e *LenEditor) table() {
	if !e.ownTable {
		e.t.pages, e.ownTable = slices.Clone(e.t.pages), true
	}
}

// repack makes page p one of the editor's own, of count lengths at
// width bits: the first count of the lengths it holds, then zeros. The
// lengths it keeps must fit width; count is at most what the page held
// or, when the table grows, the page's new length.
func (e *LenEditor) repack(p, count int, width uint) {
	e.table()
	pg := &e.t.pages[p]
	keep := min(count, e.t.count(p))
	if width == 0 {
		*pg, e.own[p] = lenPage{words: zeroWords}, false
		return
	}
	// Room for a whole page, so that the table's last page grows in place
	// as documents are added past the end.
	words := make([]uint64, packedWords(count, width)+1, packedWords(lenPageSize, width)+1)
	if width == pg.width {
		copy(words, pg.words[:packedWords(keep, width)])
		if r := uint(keep) * width & 63; r != 0 {
			words[keep*int(width)>>6] &= 1<<r - 1 // fields past keep, in the word keep ends in
		}
	} else {
		bitutil.Unpack(e.buf[:keep], pg.words, int(pg.width))
		bitutil.Pack(words, e.buf[:keep], int(width))
	}
	*pg, e.own[p] = lenPage{words: words, width: width}, true
}
