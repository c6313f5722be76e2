// Package ef implements Elias-Fano encoding of monotone integer sequences
// (Elias 1974; Vigna's quasi-succinct indices, WSDM 2013), the codec
// Griffin-GPU adopts for its parallel decompression path.
//
// For a sequence of n non-decreasing integers with upper bound U, each
// value is split into b = floor(log2(U/n)) low bits, stored contiguously in
// the low-bits array, and the remaining high bits, stored as unary-coded
// d-gaps in the high-bits array (Figure 4 of the paper). Total space is
// close to the information-theoretic optimum, and decompression of element
// i needs only a select operation on the high-bits array plus one low-bits
// fetch — independent per element, which is what makes the scheme
// parallelizable on the (simulated) GPU.
//
// Like the PForDelta baseline, lists are partitioned into fixed 128-element
// blocks ("fixed-length partitioned EF", §3.1.1) so skip pointers can
// address and decompress blocks independently. A list keeps one Row per
// block — the skip pointer and where the block's words lie, 12 bytes and no
// pointer — in pages of 64 rows, each of which holds the words of its own
// blocks (Page); a Block is made from a row when it is asked for. A list
// spliced from another (List.Splice) shares the pages below the splice
// point and, in the page the point falls in, the words of the rows before
// it: it owns the words of the blocks it encodes. A view of a run of a
// list's blocks (List.View) shares all of them: a shard of a docID range
// partition is made of such views.
package ef

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"griffin/internal/bitutil"
)

// BlockSize is the number of docIDs per partitioned-EF block.
const BlockSize = 128

// ErrNotAscending is returned when input docIDs are not strictly ascending.
var ErrNotAscending = errors.New("ef: docIDs not strictly ascending")

// Block is one Elias-Fano-encoded block of up to BlockSize docIDs, as
// List.Block hands it out: a value made from the block's row, its two
// arrays cut from its page's words. No list stores one.
//
// Values are encoded relative to FirstDocID (the block's first value):
// element i stores v_i = docID_i - FirstDocID, so v_0 = 0 and the local
// universe is LastDocID - FirstDocID.
type Block struct {
	// FirstDocID is the first docID in the block, stored uncompressed.
	FirstDocID uint32
	// N is the number of encoded values.
	N int
	// B is the number of low bits per element.
	B int
	// HighBits is the unary-coded high-bits array: for each element a run
	// of zeros (the d-gap of its high part) terminated by a one. It
	// contains exactly N one-bits.
	HighBits []uint64
	// HighLen is the length of HighBits in bits.
	HighLen int
	// LowBits stores N contiguous B-bit low parts.
	LowBits []uint64
}

// PageShift sizes the pages a list's block table is held in: 64 rows,
// 8 192 postings. A list re-encoded from block k on shares the pages
// below k with the list it was made from (List.Splice), and the words of
// the page k falls in that come before k; it copies that page's rows and
// at most its words, whatever the list's length. It is a constant, not a setting: the
// accessors below, which every probe of a skip pointer goes through,
// index with it.
const PageShift = 6

// Row is a block's entry in its list's table: the paper's skip pointer
// (§2.1, Fig. 2) and the header the block is decoded from, in 12 bytes
// that hold no pointer.
type Row struct {
	// FirstDocID is the block's first docID: its skip pointer.
	FirstDocID uint32
	// Off is where the block's words start in its page's run (Page.Span):
	// HighWords words of high bits, then LowWords words of low bits.
	Off uint16
	// HighLen is the length of the high-bits array in bits.
	HighLen uint16
	// N is the number of encoded values, B the low bits per element.
	N, B uint8
	// HighWords and LowWords are the word counts of the two arrays.
	HighWords, LowWords uint8
}

// Page is one page of a block table: up to 1<<PageShift rows of type R
// and the words of their blocks, back to back in row order — the page's
// run. A row's offset is relative to the run, so 64 blocks of at most 70
// words each fit a u16.
//
// The run is Words, then the page's owned run (Owned). Words is a view of
// a mapped file for a list that was opened, one allocation of its own for
// an encoded list; such a page owns no run. A page that Pager.Seed opened
// inside another (a splice) holds both: Words, the words of the rows
// before the splice point as a view of that page's Words (mapped or
// heap), and the owned run, one allocation of the words of the rows it
// added. A block's words lie in one of the two, and Span finds them. A
// spliced page's Words keep the capacity of the words they are a view
// of: past their length lie the dead words the view keeps alive, which a
// later splice of the page counts (Pager.Seed).
//
// The rows lie where the words do: a view of a mapped file, beside the
// words, for a list that was opened; on the heap otherwise. A spliced
// page's rows are a heap copy, or, while nothing has been added behind
// them, a view of the rows of the page it was opened in. Nothing writes
// them, and a page's Rows end at their capacity, so appending to them
// copies.
type Page[R any] struct {
	Rows  []R
	Words []uint64

	ext *pageExt // nil for a page that owns no run
}

// pageExt is a spliced page's owned run, behind one pointer so that a
// page stays 56 bytes.
type pageExt struct {
	owned []uint64 // the words of the rows past Words
}

// Span returns the n words at offset off of the page's run: a block's
// words, which lie in Words or in the owned run, never across the two.
func (pg *Page[R]) Span(off, n int) []uint64 {
	if end := off + n; end <= len(pg.Words) {
		return pg.Words[off:end:end]
	}
	w := pg.ext.owned[off-len(pg.Words):]
	return w[:n:n]
}

// Owned returns the page's owned run, the words of its rows past Words:
// nil but for a page Pager.Seed opened inside another.
func (pg *Page[R]) Owned() []uint64 {
	if pg.ext == nil {
		return nil
	}
	return pg.ext.owned
}

// List is a partitioned Elias-Fano compressed posting list: every block
// full but the last.
type List struct {
	// N is the total number of docIDs.
	N int
	// Base is the row of the first page that holds block 0: 0 but for a
	// view (View), which can start mid-page.
	Base int
	// Pages is the block table: every page full but the last.
	Pages []Page[Row]
}

// NumBlocks returns the number of blocks.
func (l *List) NumBlocks() int { return (l.N + BlockSize - 1) / BlockSize }

// Row returns block i's row and the page it lies in.
func (l *List) Row(i int) (*Row, *Page[Row]) {
	i += l.Base
	pg := &l.Pages[i>>PageShift]
	return &pg.Rows[i&(1<<PageShift-1)], pg
}

// First returns the first docID of block i: its skip pointer.
func (l *List) First(i int) uint32 {
	i += l.Base
	return l.Pages[i>>PageShift].Rows[i&(1<<PageShift-1)].FirstDocID
}

// Block returns block i of the list as a value: its header from the
// row, its two arrays cut from the page's words. The device kernels read
// its fields; the CPU's Get and DecompressBlock make none.
func (l *List) Block(i int) Block {
	r, pg := l.Row(i)
	w := pg.Span(int(r.Off), r.words())
	return Block{
		FirstDocID: r.FirstDocID, N: int(r.N), B: int(r.B), HighLen: int(r.HighLen),
		HighBits: w[:r.HighWords:r.HighWords], LowBits: w[r.HighWords:],
	}
}

// View returns the list of l's blocks [k, end), k < end: it shares l's
// pages, their rows and their words, and copies nothing. Every block of
// it is full but the last, as in l.
func (l *List) View(k, end int) *List {
	n := (end - k) * BlockSize
	if end == l.NumBlocks() {
		n = l.N - k*BlockSize
	}
	first, last := l.Base+k, l.Base+end-1
	return &List{N: n, Base: first & (1<<PageShift - 1), Pages: l.Pages[first>>PageShift : last>>PageShift+1]}
}

// Compress encodes a strictly ascending docID list. Nothing is allocated
// per block: each page's words are sized before any of them is written
// and are one exact allocation, its rows another.
func Compress(docIDs []uint32) (*List, error) {
	var e encoder
	if err := e.appendAll(docIDs); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// Splice returns the list of l's blocks [0, k) followed by the encoding
// of tail; tail must be strictly ascending and above every docID of those
// blocks, and block k-1 must be full. The result shares every whole page
// of l below block k as it is. Of the page k falls in it copies the rows
// before k; their words it shares as a view of that page's Words and
// copies only those the page owned itself (an earlier splice encoded
// them) — unless the view would keep more than maxDead dead words alive,
// when it copies them all (Pager.Seed). It encodes tail behind them into
// words of its own, so it never chains to the list it was made from. A
// view's splice keeps its Base. With k == 0 nothing of l is used (it may
// be nil) and the result is the encoding of tail alone.
func (l *List) Splice(k int, tail []uint32) (*List, error) {
	var e encoder
	base := 0
	if k > 0 {
		if k > l.NumBlocks() || l.Block(k-1).N != BlockSize {
			return nil, fmt.Errorf("ef: splice at block %d of %d", k, l.NumBlocks())
		}
		last, _ := l.Row(k - 1)
		base = l.Base
		e.pager.Seed(l.Pages, base+k, int(last.Off)+last.words())
		e.n, e.last = k*BlockSize, l.Get(k-1, BlockSize-1)
	}
	if err := e.appendAll(tail); err != nil {
		return nil, err
	}
	out := e.finish()
	out.Base = base
	return out, nil
}

// blockOf returns the docIDs of block k of a list.
func blockOf(docIDs []uint32, k int) []uint32 {
	return docIDs[k*BlockSize : min((k+1)*BlockSize, len(docIDs))]
}

// shape returns the row of a block of n values (1 to BlockSize), the
// first docID first and the last value u, but for its offset: a block's
// shape follows from its first docID and its last value alone.
func shape(first, u uint32, n int) Row {
	// b = floor(log2(U/n)) per the paper; 0 when U < n (dense runs).
	b := 0
	if q := uint64(u) / uint64(n); q >= 1 {
		b = bitutil.Log2Floor(q)
	}
	// Element i's one-bit sits at (v_i >> b) + i, so the last element ends
	// the array: fewer than 3n bits.
	highLen := int(u>>uint(b)) + n
	return Row{
		FirstDocID: first, HighLen: uint16(highLen), N: uint8(n), B: uint8(b),
		HighWords: uint8(bitutil.WordsFor(highLen)), LowWords: uint8(bitutil.WordsFor(n * b)),
	}
}

// shapeIDs returns the shape of the block of ascending docIDs ids.
func shapeIDs(ids []uint32) Row {
	return shape(ids[0], ids[len(ids)-1]-ids[0], len(ids))
}

// words returns how many words the row's block takes.
func (r *Row) words() int { return int(r.HighWords) + int(r.LowWords) }

// highBits gathers a block's high bits before they are stored: element
// i's one-bit is set in copy i mod 2, on the stack, and the two copies
// are ORed into the block's words once, whole. Consecutive elements' bits
// mostly share a word, and setting a bit in memory loads the word the
// last store to it wrote: with one copy, each element waited for the one
// before it. A block's high bits take at most 6 words.
type highBits [2][8]uint64

// set sets element i's one-bit, at position h.
func (hb *highBits) set(i int, h uint) {
	hb[i&1][h/bitutil.WordBits&7] |= 1 << (h % bitutil.WordBits)
}

// encoder builds a List from docIDs handed over a run at a time: Compress
// and List.Splice feed it a whole list or a splice's tail. The zero value
// is ready for use.
type encoder struct {
	n     int
	last  uint32 // the last docID appended
	pager Pager[Row]
	// vs holds the values of the block being encoded: scratch a block
	// needs, which a local array would have zeroed for every block.
	vs [BlockSize]uint32
}

// appendAll encodes ids as the list's next blocks, sizing each page's
// words before it writes them.
func (e *encoder) appendAll(ids []uint32) error {
	if err := e.check(ids); err != nil {
		return err
	}
	e.pager.Fill((len(ids)+BlockSize-1)/BlockSize,
		func(k int) int { r := shapeIDs(blockOf(ids, k)); return r.words() },
		func(k int) { e.putIDs(blockOf(ids, k)) })
	return nil
}

// check returns ErrNotAscending unless ids are strictly ascending and
// above every docID appended before.
func (e *encoder) check(ids []uint32) error {
	prev, hasPrev := e.last, e.n > 0
	for i, id := range ids {
		if hasPrev && id <= prev {
			return fmt.Errorf("%w: ids[%d]=%d after %d", ErrNotAscending, e.n+i, id, prev)
		}
		prev, hasPrev = id, true
	}
	return nil
}

// putIDs encodes the checked block ids as the list's next one.
func (e *encoder) putIDs(ids []uint32) {
	vs := &e.vs
	first := ids[0]
	for i, id := range ids {
		vs[i&(BlockSize-1)] = id - first
	}
	n := len(ids)
	r := shape(first, vs[n-1], n)
	var hb highBits
	b := r.B & 31 // b < 32, and the mask spares each shift by it a test for 32 and more
	for i, v := range vs[:n] {
		hb.set(i, uint(v>>b)+uint(i))
	}
	e.add(r, &hb, vs[:n])
}

// add encodes the block of values vs, shaped r, whose high bits hb holds,
// as the list's next one: its words are allocated and written over, the
// high words stored whole and the low parts packed. No bit is appended to
// anything.
func (e *encoder) add(r Row, hb *highBits, vs []uint32) {
	off, w := e.pager.Alloc(r.words())
	r.Off = uint16(off)
	for j := range w[:r.HighWords] {
		w[j] = hb[0][j&7] | hb[1][j&7]
	}
	bitutil.Pack(w[r.HighWords:], vs, int(r.B)) // no-op when B == 0
	e.pager.Add(r)
	n := len(vs)
	e.n, e.last = e.n+n, r.FirstDocID+vs[n-1]
}

// finish returns the list of the blocks appended.
func (e *encoder) finish() *List {
	return &List{N: e.n, Pages: e.pager.Finish()}
}

// Pager builds a block table a row at a time, for the Elias-Fano and
// frequency encoders alike: Alloc a block's words in the open page, Add
// the row that addresses them, Finish. A page it closes owns its rows and
// its words, each one exact allocation: the scratch they were written
// into when that is exactly full — always, for pages Fill sized — else a
// copy of it. The page Seed opens is the exception: its Words are a view
// of the page it was opened in, and the words added behind them are its
// owned run. Pages are never shared with the pager's scratch, so a list
// keeps alive the pages it can reach and the rows and words they are
// views of, and no dead page's owned run (Seed's first Fill copies what
// it takes of one). The zero value is ready for use.
type Pager[R any] struct {
	pages  []Page[R]
	rows   []R      // the open page's
	words  []uint64 // the open page's own, past shared
	shared []uint64 // the open page's Words, while it is a seeded page's view
}

// Alloc returns the open page's next n words and where they start in
// its run. The words hold whatever they held: the caller writes every
// one of them.
func (p *Pager[R]) Alloc(n int) (off int, w []uint64) {
	start := len(p.words)
	p.words = slices.Grow(p.words, n)[:start+n]
	return len(p.shared) + start, p.words[start:]
}

// Add appends r as the open page's next row and closes the page once it
// is full.
func (p *Pager[R]) Add(r R) {
	if p.rows == nil {
		p.rows = make([]R, 0, 1<<PageShift)
	}
	p.rows = append(p.rows, r)
	if len(p.rows) == 1<<PageShift {
		p.close()
	}
}

// Fill adds n rows, add(j) adding row j through Alloc and Add. Each
// page's rows and words are counted first (words(j) is row j's word
// count) and allocated once, exactly, so the page keeps those two
// allocations as they are; the page array, unless it has room already,
// is reallocated once, exactly, too.
func (p *Pager[R]) Fill(n int, words func(j int) int, add func(j int)) {
	if need := len(p.pages) + (len(p.rows)+n+1<<PageShift-1)>>PageShift; need > cap(p.pages) {
		p.pages = append(make([]Page[R], 0, need), p.pages...)
	}
	for j := 0; j < n; {
		m := min(n-j, 1<<PageShift-len(p.rows))
		need := 0
		for i := j; i < j+m; i++ {
			need += words(i)
		}
		p.rows = append(make([]R, 0, len(p.rows)+m), p.rows...)
		var w []uint64
		if cap(p.shared)-len(p.shared) > maxDead {
			// The view would keep too much of a dead page alive: copy it.
			w = append(make([]uint64, 0, len(p.shared)+len(p.words)+need), p.shared...)
			p.shared = nil
		} else {
			w = make([]uint64, 0, len(p.words)+need)
		}
		p.words = append(w, p.words...)
		for end := j + m; j < end; j++ {
			add(j)
		}
	}
}

// Seed starts the table over as the first k rows of pages: the whole
// pages below k shared as they are, then the page k falls in opened with
// its rows before k, whose words end at word end of its run. The open
// page's Words are a view of that page's Words up to end; those of its
// owned words that come before end are the open page's first owned
// words. The rows and owned words are views that nothing writes through:
// the first Fill copies them into the open page's exact allocations, and
// a table finished with nothing added keeps them as they are. The page
// array is allocated here, once, with room for the page k falls in.
//
// The view keeps alive the whole allocation (or mapping) it is cut from,
// and the words past end are dead: the tail replaces them. The first
// Fill keeps the view only if there are at most maxDead of those, counted
// to the view's capacity; else it copies the view's words into the owned
// run with the rest. A merge that appends re-encodes only a page's last,
// partial block, so it shares the page it lands in; a splice far back
// into a heap page copies what it keeps of it, and a list spliced again
// and again, with tails, keeps alive at most maxDead words a page more
// than it uses.
func (p *Pager[R]) Seed(pages []Page[R], k, end int) {
	full, r := k>>PageShift, k&(1<<PageShift-1)
	p.pages = append(make([]Page[R], 0, full+1), pages[:full]...)
	p.rows, p.words, p.shared = nil, nil, nil
	if r > 0 {
		pg := &pages[full]
		p.rows = pg.Rows[:r:r]
		if end <= len(pg.Words) {
			p.shared = pg.Words[:end] // the capacity past end: what the view pins
		} else {
			n := end - len(pg.Words)
			p.shared, p.words = pg.Words, pg.ext.owned[:n:n]
		}
	}
}

// maxDead is how many dead words a seeded page's view may keep alive
// past its own: 512 bytes, about one block's words at the widths lists
// have.
const maxDead = 64

// close ends the open page, if it holds a row.
func (p *Pager[R]) close() {
	if len(p.rows) == 0 {
		return
	}
	var pg Page[R]
	if p.shared != nil { // a seeded page
		pg.Rows, pg.Words = own(&p.rows), p.shared
		if len(p.words) > 0 {
			pg.ext = &pageExt{owned: own(&p.words)}
		}
	} else {
		pg.Rows, pg.Words = own(&p.rows), own(&p.words)
	}
	p.shared = nil
	p.pages = append(p.pages, pg)
}

// own returns s, the open page's rows or words, for the page to keep:
// s itself when it is exactly full, else an exact copy with s kept as
// scratch for the next page.
func own[T any](s *[]T) []T {
	out := *s
	if len(out) == cap(out) {
		*s = nil
		return out
	}
	*s = out[:0]
	return slices.Clone(out)
}

// Finish returns the pages made since the last Finish and readies the
// pager for the next table.
func (p *Pager[R]) Finish() []Page[R] {
	p.close()
	pages := p.pages
	p.pages = nil
	return pages
}

// DecompressBlock decodes the docIDs of block k into dst, which must
// have capacity for them, and returns their count. This is the serial
// CPU decode, a block at a time, reading the row and its page's words
// where they lie: the low parts are unpacked in one run, then the set
// bits of the high words are walked with a trailing-zeros count — element
// i's one-bit at position p gives its high part p - i.
func (l *List) DecompressBlock(k int, dst []uint32) int {
	r, pg := l.Row(k)
	w := pg.Span(int(r.Off), r.words())
	return decode(dst[:r.N], w[:r.HighWords], w[r.HighWords:], r.FirstDocID, int(r.B))
}

// decode is DecompressBlock with the block's fields as arguments: dst is
// exactly as long as the block.
func decode(dst []uint32, high, low []uint64, first uint32, b int) int {
	bitutil.Unpack(dst, low, b)
	shift := uint(b) & 63 // b <= 32; the mask spares the loop a range check
	i := 0
	for wi, w := range high {
		for base := wi * bitutil.WordBits; w != 0 && i < len(dst); w &= w - 1 {
			h := uint64(base + bits.TrailingZeros64(w) - i)
			dst[i] = first + (uint32(h<<shift) | dst[i])
			i++
		}
	}
	return len(dst)
}

// Get returns docID j of block k (both 0-based) by select on the block's
// high bits — the random-access path skip-pointer searches use. It reads
// the row and its page's words where they lie and makes no Block.
func (l *List) Get(k, j int) uint32 {
	r, pg := l.Row(k)
	return r.get(pg, j)
}

// get returns docID j of the row's block, whose page is pg.
func (r *Row) get(pg *Page[Row], j int) uint32 {
	words := pg.Span(int(r.Off), r.words())
	// Select the (j+1)-th one-bit in the high bits.
	seen := 0
	for wi, w := range words[:r.HighWords] {
		pc := bitutil.Popcount(w)
		if seen+pc > j {
			pos := wi*bitutil.WordBits + bitutil.SelectInWord(w, j-seen)
			high := uint64(pos - j) // zeros before the element's one-bit
			var low uint64
			if b := int(r.B); b > 0 {
				low = bitutil.GetBits(words, int(r.HighWords)*bitutil.WordBits+j*b, b)
			}
			return r.FirstDocID + uint32(high<<r.B|low)
		}
		seen += pc
	}
	panic("ef: Get index out of range")
}

// Decompress decodes the whole list into a fresh slice of docIDs.
func (l *List) Decompress() []uint32 {
	out := make([]uint32, l.N)
	for k := range l.NumBlocks() {
		l.DecompressBlock(k, out[k*BlockSize:])
	}
	return out
}

// CompressedBits returns the total compressed size in bits: high-bits
// array, low-bits array, and the per-block header (first docID 32b,
// count 8b, width 6b).
func (l *List) CompressedBits() int64 {
	var bits int64
	for i := range l.NumBlocks() {
		r, _ := l.Row(i)
		bits += int64(r.HighLen) + int64(r.N)*int64(r.B) + blockHeaderBits
	}
	return bits
}

const blockHeaderBits = 32 + 8 + 6

// CompressedBytes returns the compressed size in bytes, rounded up; this is
// what the scheduler charges for PCIe transfer of a compressed list.
func (l *List) CompressedBytes() int64 {
	return (l.CompressedBits() + 7) / 8
}
