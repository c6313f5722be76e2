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
// blocks (Page); a Block is made from a row when it is asked for.
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
// below k with the list it was made from (List.Splice) and copies at most
// the rows and words of the one page k falls in, whatever the list's
// length. It is a constant, not a setting: the accessors below, which
// every probe of a skip pointer goes through, index with it.
const PageShift = 6

// Row is a block's entry in its list's table: the paper's skip pointer
// (§2.1, Fig. 2) and the header the block is decoded from, in 12 bytes
// that hold no pointer.
type Row struct {
	// FirstDocID is the block's first docID: its skip pointer.
	FirstDocID uint32
	// Off is where the block's words start in its page's Words: HighWords
	// words of high bits, then LowWords words of low bits.
	Off uint16
	// HighLen is the length of the high-bits array in bits.
	HighLen uint16
	// N is the number of encoded values, B the low bits per element.
	N, B uint8
	// HighWords and LowWords are the word counts of the two arrays.
	HighWords, LowWords uint8
}

// Page is one page of a block table: up to 1<<PageShift rows of type R
// and the words of their blocks, back to back in row order, which the
// page holds — a view of a mapped file for a list that was opened, one
// allocation of its own for a list that was encoded. A row's offset is
// relative to its page, so 64 blocks of at most 70 words each fit a u16.
type Page[R any] struct {
	Rows  []R
	Words []uint64
}

// List is a partitioned Elias-Fano compressed posting list.
type List struct {
	// N is the total number of docIDs.
	N int
	// Pages is the block table: every page full but the last.
	Pages []Page[Row]
}

// NumBlocks returns the number of blocks.
func (l *List) NumBlocks() int { return (l.N + BlockSize - 1) / BlockSize }

// First returns the first docID of block i: its skip pointer.
func (l *List) First(i int) uint32 {
	return l.Pages[i>>PageShift].Rows[i&(1<<PageShift-1)].FirstDocID
}

// Block returns block i of the list as a value: its header from the
// row, its two arrays cut from the page's words. The device kernels read
// its fields; the CPU's Get and DecompressBlock make none.
func (l *List) Block(i int) Block {
	pg := &l.Pages[i>>PageShift]
	r := &pg.Rows[i&(1<<PageShift-1)]
	lo := int(r.Off) + int(r.HighWords)
	end := lo + int(r.LowWords)
	return Block{
		FirstDocID: r.FirstDocID, N: int(r.N), B: int(r.B), HighLen: int(r.HighLen),
		HighBits: pg.Words[r.Off:lo:lo], LowBits: pg.Words[lo:end:end],
	}
}

// Compress encodes a strictly ascending docID list. Nothing is allocated
// per block: each page's words are sized before any of them is written
// and are one exact allocation, its rows another.
func Compress(docIDs []uint32) (*List, error) {
	var e Encoder
	if err := e.appendAll(docIDs); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// Splice returns the list of l's blocks [0, k) followed by the encoding
// of tail, which must be strictly ascending and above every docID of
// those blocks; block k-1 must be full. The result shares every whole
// page of l below block k as it is, holds copies of the rows and words of
// the page k falls in that come before k, and encodes tail behind them
// into pages of its own: it copies at most one page of l. With k == 0
// nothing of l is used (it may be nil) and the result is Compress(tail).
func (l *List) Splice(k int, tail []uint32) (*List, error) {
	var e Encoder
	if k > 0 {
		if k > l.NumBlocks() || l.Block(k-1).N != BlockSize {
			return nil, fmt.Errorf("ef: splice at block %d of %d", k, l.NumBlocks())
		}
		last := &l.Pages[(k-1)>>PageShift].Rows[(k-1)&(1<<PageShift-1)]
		e.pager.Seed(l.Pages, k, int(last.Off)+int(last.HighWords)+int(last.LowWords))
		e.n, e.last = k*BlockSize, l.Get(k-1, BlockSize-1)
	}
	if err := e.appendAll(tail); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// blockOf returns the docIDs of block k of a list.
func blockOf(docIDs []uint32, k int) []uint32 {
	return docIDs[k*BlockSize : min((k+1)*BlockSize, len(docIDs))]
}

// shape returns the row of the block of ids (1 to BlockSize ascending
// docIDs), but for its offset: a block's shape follows from its first and
// last docID alone.
func shape(ids []uint32) Row {
	n := len(ids)
	u := uint64(ids[n-1] - ids[0]) // local universe (v_{n-1})
	// b = floor(log2(U/n)) per the paper; 0 when U < n (dense runs).
	b := 0
	if u/uint64(n) >= 1 {
		b = bitutil.Log2Floor(u / uint64(n))
	}
	// Element i's one-bit sits at (v_i >> b) + i, so the last element ends
	// the array: fewer than 3n bits.
	highLen := int(u>>uint(b)) + n
	return Row{
		FirstDocID: ids[0], HighLen: uint16(highLen), N: uint8(n), B: uint8(b),
		HighWords: uint8(bitutil.WordsFor(highLen)), LowWords: uint8(bitutil.WordsFor(n * b)),
	}
}

// words returns how many words the row's block takes.
func (r *Row) words() int { return int(r.HighWords) + int(r.LowWords) }

// encode writes ids, the block r was shaped from, into w — its words,
// which must be zero. Each high bit is set where it belongs and the low
// parts are packed a word at a time; no bit is appended to anything.
func encode(r *Row, ids []uint32, w []uint64) {
	high, low := w[:r.HighWords], w[r.HighWords:]
	var vs [BlockSize]uint32
	for i, id := range ids {
		v := id - r.FirstDocID
		vs[i] = v
		h := uint(v>>r.B) + uint(i)
		high[h/bitutil.WordBits] |= 1 << (h % bitutil.WordBits)
	}
	bitutil.Pack(low, vs[:len(ids)], int(r.B)) // no-op when B == 0
}

// Encoder builds Lists from blocks handed over one at a time, for a
// caller that produces a list's docIDs in block-sized pieces and never
// holds them all (a shard split): Append every block, then Finish. The
// lists are the ones Compress returns, page for page, but a page's words
// may be a copy of the Encoder's scratch where Compress sizes them before
// writing them. Compress and List.Splice are this encoder fed a whole
// list. The zero value is ready for use.
type Encoder struct {
	n     int
	last  uint32 // the last docID appended
	pager Pager[Row]
}

// Append encodes ids as the list's next block: BlockSize docIDs — fewer
// only in a list's last block — strictly ascending and above every docID
// appended before.
func (e *Encoder) Append(ids []uint32) error {
	if len(ids) == 0 || len(ids) > BlockSize || e.n%BlockSize != 0 {
		return fmt.Errorf("ef: block of %d docIDs appended after %d", len(ids), e.n)
	}
	if err := e.check(ids); err != nil {
		return err
	}
	e.put(ids)
	return nil
}

// appendAll encodes ids as the list's next blocks, sizing each page's
// words before it writes them.
func (e *Encoder) appendAll(ids []uint32) error {
	if err := e.check(ids); err != nil {
		return err
	}
	e.pager.Fill((len(ids)+BlockSize-1)/BlockSize,
		func(k int) int { r := shape(blockOf(ids, k)); return r.words() },
		func(k int) { e.put(blockOf(ids, k)) })
	return nil
}

// check returns ErrNotAscending unless ids are strictly ascending and
// above every docID appended before.
func (e *Encoder) check(ids []uint32) error {
	prev, hasPrev := e.last, e.n > 0
	for i, id := range ids {
		if hasPrev && id <= prev {
			return fmt.Errorf("%w: ids[%d]=%d after %d", ErrNotAscending, e.n+i, id, prev)
		}
		prev, hasPrev = id, true
	}
	return nil
}

// put encodes the checked block ids as the list's next one.
func (e *Encoder) put(ids []uint32) {
	r := shape(ids)
	off, w := e.pager.Alloc(r.words())
	r.Off = uint16(off)
	encode(&r, ids, w)
	e.pager.Add(r)
	e.n, e.last = e.n+len(ids), ids[len(ids)-1]
}

// Finish returns the list of the blocks appended since the last Finish
// and readies the Encoder for the next list.
func (e *Encoder) Finish() *List {
	l := &List{N: e.n, Pages: e.pager.Finish()}
	e.n, e.last = 0, 0
	return l
}

// Pager builds a block table a row at a time, for the Elias-Fano and
// frequency encoders alike: Alloc a block's words in the open page, Add
// the row that addresses them, Finish. A page it closes owns its rows and
// its words, each one exact allocation: the scratch they were written
// into when that is exactly full — always, for pages Fill sized — else a
// copy of it. Pages are never shared with the pager's scratch, so a list
// keeps alive only pages it can reach (and, seeded by Seed and finished
// with nothing added, the page it was seeded from). The zero value is
// ready for use.
type Pager[R any] struct {
	pages []Page[R]
	rows  []R      // the open page's
	words []uint64 // the open page's
}

// Alloc returns the open page's next n words, zeroed, and where they
// start in it.
func (p *Pager[R]) Alloc(n int) (off int, w []uint64) {
	off = len(p.words)
	p.words = slices.Grow(p.words, n)[:off+n]
	w = p.words[off:]
	clear(w)
	return off, w
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
// allocations as they are.
func (p *Pager[R]) Fill(n int, words func(j int) int, add func(j int)) {
	p.pages = slices.Grow(p.pages, (len(p.rows)+n+1<<PageShift-1)>>PageShift)
	for j := 0; j < n; {
		m := min(n-j, 1<<PageShift-len(p.rows))
		need := 0
		for i := j; i < j+m; i++ {
			need += words(i)
		}
		p.rows = append(make([]R, 0, len(p.rows)+m), p.rows...)
		p.words = append(make([]uint64, 0, len(p.words)+need), p.words...)
		for end := j + m; j < end; j++ {
			add(j)
		}
	}
}

// Seed starts the table over as the first k rows of pages: the whole
// pages below k shared as they are, then the rows of the page k falls in
// that come before k and their words, which end at word end. Those two
// are views of that page that nothing writes through: the first Fill
// copies them into the open page's exact allocations, and a table
// finished with nothing added keeps them as they are.
func (p *Pager[R]) Seed(pages []Page[R], k, end int) {
	full, r := k>>PageShift, k&(1<<PageShift-1)
	p.pages = append(p.pages[:0], pages[:full]...)
	p.rows, p.words = nil, nil
	if r > 0 {
		p.rows, p.words = pages[full].Rows[:r:r], pages[full].Words[:end:end]
	}
}

// close ends the open page, if it holds a row.
func (p *Pager[R]) close() {
	if len(p.rows) > 0 {
		p.pages = append(p.pages, Page[R]{Rows: own(&p.rows), Words: own(&p.words)})
	}
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
	pg := &l.Pages[k>>PageShift]
	r := &pg.Rows[k&(1<<PageShift-1)]
	lo := int(r.Off) + int(r.HighWords)
	return decode(dst[:r.N], pg.Words[r.Off:lo], pg.Words[lo:lo+int(r.LowWords)], r.FirstDocID, int(r.B))
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
	pg := &l.Pages[k>>PageShift]
	return pg.Rows[k&(1<<PageShift-1)].get(pg.Words, j)
}

// get returns docID j of the row's block, whose page's words are words.
func (r *Row) get(words []uint64, j int) uint32 {
	// Select the (j+1)-th one-bit in the high bits.
	off, seen := int(r.Off), 0
	for wi, w := range words[off : off+int(r.HighWords)] {
		pc := bitutil.Popcount(w)
		if seen+pc > j {
			pos := wi*bitutil.WordBits + bitutil.SelectInWord(w, j-seen)
			high := uint64(pos - j) // zeros before the element's one-bit
			var low uint64
			if b := int(r.B); b > 0 {
				low = bitutil.GetBits(words, (off+int(r.HighWords))*bitutil.WordBits+j*b, b)
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
	for _, pg := range l.Pages {
		for _, r := range pg.Rows {
			bits += int64(r.HighLen) + int64(r.N)*int64(r.B) + blockHeaderBits
		}
	}
	return bits
}

const blockHeaderBits = 32 + 8 + 6

// CompressedBytes returns the compressed size in bytes, rounded up; this is
// what the scheduler charges for PCIe transfer of a compressed list.
func (l *List) CompressedBytes() int64 {
	return (l.CompressedBits() + 7) / 8
}
