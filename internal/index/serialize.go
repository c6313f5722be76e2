package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"

	"griffin/internal/ef"
)

// Binary on-disk format, version 5 (little-endian throughout). Every
// u64 run sits at a naturally aligned file offset, so a loaded index is
// a set of views into the file's bytes rather than a decoded copy of
// them (see Parse and Open):
//
//	header, 32 B:
//	  magic "GRIF" | version u32 | numDocs u64 | numTerms u64 | avgDocLen f64
//	doc lengths, in pages of 1<<DocLenShift documents, the last one the rest:
//	  width [numPages]u8 | zero pad to 8
//	  per page: its lengths as width-bit fields, [ceil(count*width/64)]u64
//	  one zero u64
//	per term, in ascending term order (each record starts 8-aligned):
//	  n u64 | numBlocks u32 | termLen u16 | term bytes | zero pad to 8
//	  Elias-Fano rows, [numBlocks]ef.Row, 12 B each | zero pad to 8
//	    firstDocID u32 | off u16 | highLen u16 | n u8 | b u8 |
//	    highWords u8 | lowWords u8
//	  frequency rows, [numBlocks]freqRow, 4 B each | zero pad to 8
//	    off u16 | b u8 | words u8
//	  Elias-Fano words, per block: high [highWords]u64 | low [lowWords]u64
//	  frequency words, per block:  packed [words]u64
//
// A page's width is the bit length of its largest length, at most 32, so
// a page of zeros has no words; the bits past its last length and the
// trailing word, which the last field of every page can be read with,
// are zero. The rows are the ones a list holds in memory, byte for byte
// (TestRowLayoutIsTheFile): a row's off is where its block's words start
// in the run of its page of 1<<ef.PageShift rows, so Parse can make the
// rows, like the words, views of the file. Version 4 held a 24-byte row
// per block with absolute word counts in place of offsets; version 3
// held the lengths as [numDocs]u32. Padding is implicit — a reader
// computes it, no offset is stored — and must be zero, and nothing may
// follow the last record, so WriteTo of a parsed index reproduces the
// file byte for byte.
//
// Only the Elias-Fano form is serialized; a loaded index can re-derive the
// PForDelta baseline on demand for experiments.

const (
	magic   = "GRIF"
	version = 5

	headerLen  = 32 // magic | version | numDocs | numTerms | avgDocLen
	minListLen = 16 // n | numBlocks | termLen | empty term, padded to 8
	rowLen     = 12 // an ef.Row
	freqRowLen = 4  // a freqRow

	// Per-block bounds: the high-bits array of an EF block is
	// < 3*BlockSize bits (encoder invariant), low bits and packed
	// frequencies are at most 32 per element.
	maxHighLen    = 3 * BlockSize
	maxHighWords  = (maxHighLen + 63) / 64
	maxValueWords = (BlockSize*32 + 63) / 64
)

// ErrBadFormat is returned when the input is not a valid index file.
var ErrBadFormat = errors.New("index: bad file format")

// ErrVersion is returned, wrapped, for a file of another format version:
// one a build of another format wrote, not damage. It is ErrBadFormat
// too.
var ErrVersion = fmt.Errorf("%w: version", ErrBadFormat)

// WriteTo serializes the index. It implements io.WriterTo. Every field
// is encoded into the writer's own 1 MB buffer, so serializing allocates
// that buffer and the sorted term list whatever the index size.
//
// The file has no place for a shard's Window or PostingList.GlobalN, so a
// shard of a range partition, or an index holding a list whose scoring
// frequency is not its own, is refused before anything is written: read
// back, it would serve the postings its lists share with its neighbours,
// or score with a shard's frequencies instead of the collection's. The
// one shard of a 1-shard partition owns every docID: it is its source.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.Window != nil && *ix.Window != (Window{0, 1 << 32}) {
		return 0, fmt.Errorf("index: a shard of docIDs [%d, %d) of a partitioned index cannot be written", ix.Window.Lo, ix.Window.Hi)
	}
	terms := ix.Terms()
	for _, term := range terms {
		p := ix.terms[term]
		if p.ScoringN() != p.N {
			return 0, fmt.Errorf("index: term %q scores as %d postings but holds %d: a shard of a partitioned index cannot be written",
				term, p.ScoringN(), p.N)
		}
	}
	e := &encoder{w: bufio.NewWriterSize(w, 1<<20)}
	e.str(magic)
	e.u32(version)
	e.u64(uint64(ix.NumDocs))
	e.u64(uint64(len(terms)))
	e.u64(math.Float64bits(ix.AvgDocLen))
	lens := ix.DocLens
	for _, pg := range lens.pages {
		e.u8(uint8(pg.width))
	}
	e.pad8()
	for p, pg := range lens.pages {
		e.words(pg.words[:packedWords(lens.count(p), pg.width)])
	}
	e.u64(0)
	for _, term := range terms {
		p := ix.terms[term]
		e.u64(uint64(p.N))
		e.u32(uint32(p.EF.NumBlocks()))
		e.u16(uint16(len(term)))
		e.str(term)
		e.pad8()
		for _, pg := range p.EF.Pages {
			for _, r := range pg.Rows {
				e.row(r)
			}
		}
		e.pad8()
		for _, pg := range p.Freqs.pages {
			for _, r := range pg.Rows {
				e.freqRow(r)
			}
		}
		e.pad8()
		// A page's run, its Words and then its owned run, is its blocks'
		// words back to back, so the pages in order are the list's two
		// runs: a spliced page writes what a built one does.
		for _, pg := range p.EF.Pages {
			e.words(pg.Words)
			e.words(pg.Owned())
		}
		for _, pg := range p.Freqs.pages {
			e.words(pg.Words)
			e.words(pg.Owned())
		}
	}
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.n, e.err
}

// encoder appends little-endian fields to a buffered writer, keeping the
// byte count and the first error.
type encoder struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (e *encoder) wrote(n int, err error) {
	e.n += int64(n)
	e.err = err
}

func (e *encoder) bytes(p []byte) {
	if e.err == nil {
		e.wrote(e.w.Write(p))
	}
}

func (e *encoder) str(s string) {
	if e.err == nil {
		e.wrote(e.w.WriteString(s))
	}
}

func (e *encoder) u8(v uint8) { e.bytes(append(e.w.AvailableBuffer(), v)) }

func (e *encoder) u16(v uint16) {
	e.bytes(binary.LittleEndian.AppendUint16(e.w.AvailableBuffer(), v))
}

func (e *encoder) u32(v uint32) {
	e.bytes(binary.LittleEndian.AppendUint32(e.w.AvailableBuffer(), v))
}

func (e *encoder) u64(v uint64) {
	e.bytes(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), v))
}

func (e *encoder) words(ws []uint64) {
	for _, w := range ws {
		e.u64(w)
	}
}

// row writes r in its file layout, which is its memory layout on a
// little-endian host.
func (e *encoder) row(r ef.Row) {
	e.u32(r.FirstDocID)
	e.u16(r.Off)
	e.u16(r.HighLen)
	e.bytes(append(e.w.AvailableBuffer(), r.N, r.B, r.HighWords, r.LowWords))
}

// freqRow writes r in its file layout, which is its memory layout on a
// little-endian host.
func (e *encoder) freqRow(r freqRow) {
	e.u16(r.off)
	e.bytes(append(e.w.AvailableBuffer(), r.b, r.words))
}

// pad8 writes zeros up to the next multiple of 8 bytes.
func (e *encoder) pad8() {
	var zeros [8]byte
	e.bytes(zeros[:-e.n&7])
}

// ReadIndex deserializes an index written by WriteTo: it reads r to its
// end and parses the bytes in place (see Parse).
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: read: %w", err)
	}
	return Parse(data)
}

// readAll is io.ReadAll into a buffer sized up front when r can say how
// much it holds (a file, a byte reader): the parsed index keeps that one
// large buffer alive, so it is allocated once instead of grown by
// doubling.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch s := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = s.Len()
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead) // room for the read that returns io.EOF
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Parse decodes a serialized index held in data without copying its
// payload: on a little-endian host with data 8-byte aligned, the rows and
// words of every page of every block table, and the words of DocLens,
// are views into data, and what is built on the heap is DocLens' page
// table, 32 bytes a page, and each list's two arrays of pages, 56 bytes
// per 64 blocks apiece, one allocation each; otherwise (big-endian host,
// misaligned buffer) the same parser decodes the lengths' words, and
// each list's rows and words, into fresh slices. Either way the returned
// index aliases data for as long as it — or any segment spliced from it,
// which shares its pages by reference — is reachable, so data must never
// be written again. Segments are immutable throughout the repo; Parse
// only makes that contract load-bearing.
//
// All lengths in data are untrusted: every structural inconsistency is
// reported as ErrBadFormat, and an accepted index cannot make
// ef.List.Get, DecompressBlock, FreqStore.At, DocLen or the device
// kernels index out of range.
func Parse(data []byte) (*Index, error) {
	d := &decoder{buf: data}
	if string(d.next(4)) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, data[:min(len(data), 4)])
	}
	if ver := d.u32(); d.err == nil && ver != version {
		return nil, fmt.Errorf("%w %d, this build reads version %d: rebuild the file with griffin-indexer",
			ErrVersion, ver, version)
	}
	numDocs := d.u64()
	numTerms := d.u64()
	avgDocLen := math.Float64frombits(d.u64())
	if d.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, d.err)
	}
	if numDocs > 1<<34 {
		return nil, fmt.Errorf("%w: numDocs %d", ErrBadFormat, numDocs)
	}
	docLens, err := d.lens(int(numDocs))
	if err != nil {
		return nil, fmt.Errorf("%w: doc lengths: %v", ErrBadFormat, err)
	}

	// numTerms is untrusted: size the map by what the remaining bytes
	// could hold, not by what the header claims.
	ix := &Index{
		NumDocs:   int(numDocs),
		DocLens:   docLens,
		AvgDocLen: avgDocLen,
		terms:     make(map[string]*PostingList, min(numTerms, uint64(len(data))/minListLen)),
	}
	prev := ""
	for t := uint64(0); t < numTerms; t++ {
		pl, err := d.list()
		if err != nil {
			return nil, fmt.Errorf("%w: term %d: %v", ErrBadFormat, t, err)
		}
		if t > 0 && pl.Term <= prev {
			return nil, fmt.Errorf("%w: term %d: %q after %q", ErrBadFormat, t, pl.Term, prev)
		}
		prev = pl.Term
		ix.terms[pl.Term] = pl
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(data)-d.off)
	}
	return ix, nil
}

// lens parses the doc-length section of n documents. Its errors are
// wrapped by the caller.
func (d *decoder) lens(n int) (LenTable, error) {
	t := LenTable{n: n}
	// The widths are taken from the input before anything is allocated
	// from their count, so a corrupt numDocs cannot demand more memory
	// than the file is long.
	widths := d.next(uint64(n+lenPageSize-1) >> DocLenShift)
	d.pad8()
	if d.err != nil {
		return t, d.err
	}
	if len(widths) > 0 {
		t.pages = make([]lenPage, len(widths))
	}
	total := 0
	for p, w := range widths {
		if w > 32 {
			return t, fmt.Errorf("page %d: width %d", p, w)
		}
		t.pages[p].width = uint(w)
		total += packedWords(t.count(p), uint(w))
	}
	words := wordsOf(d.next(uint64(total+1) * 8))
	if d.err != nil {
		return t, d.err
	}
	if words[total] != 0 {
		return t, errors.New("trailing word not zero")
	}
	// Only the last page can end inside a word: 1<<DocLenShift fields of
	// any width fill whole words.
	if last := len(t.pages) - 1; last >= 0 {
		if r := uint(t.count(last)) * t.pages[last].width & 63; r != 0 && words[total-1]>>r != 0 {
			return t, fmt.Errorf("page %d: bits past its last length not zero", last)
		}
	}
	at := 0
	for p := range t.pages {
		pg := &t.pages[p]
		if pg.width == 0 {
			pg.words = zeroWords
			continue
		}
		k := packedWords(t.count(p), pg.width)
		pg.words = words[at : at+k+1 : at+k+1]
		at += k
	}
	return t, nil
}

// list parses one term record. Its errors are wrapped by the caller.
func (d *decoder) list() (*PostingList, error) {
	n := d.u64()
	numBlocks := uint64(d.u32())
	term := string(d.next(uint64(d.u16())))
	d.pad8()
	if d.err != nil {
		return nil, d.err
	}
	if n > 1<<34 || numBlocks != (n+BlockSize-1)/BlockSize {
		return nil, fmt.Errorf("n=%d blocks=%d", n, numBlocks)
	}
	// The tables are taken from the input before anything is allocated
	// from their counts, so a corrupt numBlocks cannot demand more memory
	// than the file is long.
	table := d.next(numBlocks * rowLen)
	d.pad8()
	ftable := d.next(numBlocks * freqRowLen)
	d.pad8()
	if d.err != nil {
		return nil, d.err
	}
	nb := int(numBlocks)
	rows, frows := rowsOf(table, nb, getRow), rowsOf(ftable, nb, getFreqRow)
	var efWords, freqWords uint64
	var eOff, fOff int // word offsets in the two runs of the page block i is in
	for i := range nb {
		if i&(1<<ef.PageShift-1) == 0 {
			eOff, fOff = 0, 0
		}
		r, fr := &rows[i], &frows[i]
		bn, b, fb := uint64(r.N), uint64(r.B), uint64(fr.b)
		// Every block is full except the last, which holds the rest.
		if bn != min(BlockSize, n-uint64(i)*BlockSize) {
			return nil, fmt.Errorf("block %d holds %d of n=%d", i, bn, n)
		}
		if b > 32 || r.HighLen > maxHighLen || r.HighWords > maxHighWords ||
			uint64(r.HighWords)*64 < uint64(r.HighLen) ||
			r.LowWords > maxValueWords || uint64(r.LowWords)*64 < bn*b {
			return nil, fmt.Errorf("block %d header out of bounds", i)
		}
		if fb == 0 || fb > 32 || fr.words > maxValueWords || uint64(fr.words)*64 < bn*fb {
			return nil, fmt.Errorf("freq block %d out of bounds", i)
		}
		// A row's words follow its predecessor's in the page's run.
		if int(r.Off) != eOff || int(fr.off) != fOff {
			return nil, fmt.Errorf("block %d at words %d and %d of its page, want %d and %d",
				i, r.Off, fr.off, eOff, fOff)
		}
		eOff += int(r.HighWords) + int(r.LowWords)
		fOff += int(fr.words)
		efWords += uint64(r.HighWords) + uint64(r.LowWords)
		freqWords += uint64(fr.words)
	}
	words := wordsOf(d.next((efWords + freqWords) * 8))
	if d.err != nil {
		return nil, d.err
	}

	// Each table is one array of pages whatever the list's length, and
	// its rows are one array too: on a little-endian host with the input
	// aligned a view of it, else one allocation of copies. A segment
	// merged from this one shares pages with it and so keeps these arrays
	// alive, their dead rows included — a bounded cost, this file's
	// tables once over, since every page a merge makes is allocations of
	// its own (ef.Pager).
	var pages []ef.Page[ef.Row]
	var fpages []ef.Page[freqRow]
	if nb > 0 {
		np := (nb + 1<<ef.PageShift - 1) >> ef.PageShift
		pages, fpages = make([]ef.Page[ef.Row], np), make([]ef.Page[freqRow], np)
	}
	ew, fw := words[:efWords:efWords], words[efWords:]
	var eAt, fAt int // where the page starts in the two runs
	for p := range pages {
		lo, hi := p<<ef.PageShift, min(nb, (p+1)<<ef.PageShift)
		last, flast := &rows[hi-1], &frows[hi-1]
		eEnd := eAt + int(last.Off) + int(last.HighWords) + int(last.LowWords)
		fEnd := fAt + int(flast.off) + int(flast.words)
		// Capped, so an append to a page's rows never writes the input.
		pages[p] = ef.Page[ef.Row]{Rows: rows[lo:hi:hi], Words: ew[eAt:eEnd:eEnd]}
		fpages[p] = ef.Page[freqRow]{Rows: frows[lo:hi:hi], Words: fw[fAt:fEnd:fEnd]}
		eAt, fAt = eEnd, fEnd
		for i := lo; i < hi; i++ {
			r := &rows[i]
			if i > 0 && r.FirstDocID <= rows[i-1].FirstDocID {
				return nil, fmt.Errorf("block %d first docID %d after %d", i, r.FirstDocID, rows[i-1].FirstDocID)
			}
			// The unary high-bits array holds one one-bit per element, all
			// below HighLen: select (Get), the serial decode and the device
			// kernel's popcount scan all rely on exactly that.
			high := pages[p].Words[r.Off:][:r.HighWords]
			if below, total := onesBelow(high, int(r.HighLen)); below != int(r.N) || total != int(r.N) {
				return nil, fmt.Errorf("block %d: %d ones in %d high bits (%d in all) for n=%d",
					i, below, r.HighLen, total, r.N)
			}
		}
	}
	return &PostingList{
		Term: term, N: int(n),
		EF:    &ef.List{N: int(n), Pages: pages},
		Freqs: &FreqStore{n: int(n), pages: fpages},
	}, nil
}

// getRow decodes an ef.Row from its file layout, for a host or buffer
// the rows cannot be viewed in (rowsOf).
func getRow(b []byte) ef.Row {
	return ef.Row{
		FirstDocID: binary.LittleEndian.Uint32(b), Off: binary.LittleEndian.Uint16(b[4:]),
		HighLen: binary.LittleEndian.Uint16(b[6:]),
		N:       b[8], B: b[9], HighWords: b[10], LowWords: b[11],
	}
}

// getFreqRow decodes a freqRow from its file layout, as getRow does.
func getFreqRow(b []byte) freqRow {
	return freqRow{off: binary.LittleEndian.Uint16(b), b: b[2], words: b[3]}
}

// onesBelow counts the one-bits of words at bit positions below nbits,
// and in all of words.
func onesBelow(words []uint64, nbits int) (below, total int) {
	for i, w := range words {
		total += bits.OnesCount64(w)
		switch lo := i * 64; {
		case lo+64 <= nbits:
			below += bits.OnesCount64(w)
		case lo < nbits:
			below += bits.OnesCount64(w & (1<<uint(nbits-lo) - 1))
		}
	}
	return below, total
}

// decoder consumes little-endian fields from a byte slice, keeping the
// first error; after one, every read returns zero.
type decoder struct {
	buf []byte
	off int
	err error
}

// next returns the next n bytes, or nil once the input is exhausted.
func (d *decoder) next(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("truncated at byte %d: need %d, have %d", d.off, n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) u16() uint16 {
	if b := d.next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// pad8 skips to the next multiple of 8 bytes; the skipped bytes must be
// zero.
func (d *decoder) pad8() {
	for _, c := range d.next(uint64(-d.off & 7)) {
		if c != 0 && d.err == nil {
			d.err = fmt.Errorf("padding before byte %d not zero", d.off)
		}
	}
}
