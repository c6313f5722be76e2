package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"griffin/internal/ef"
)

// Binary on-disk format (little-endian throughout):
//
//	magic "GRIF" | version u32
//	numDocs u64 | avgDocLen f64 | docLens [numDocs]u32
//	numTerms u64
//	per term:
//	  termLen u16 | term bytes
//	  n u64 | numBlocks u32
//	  per block: firstDocID u32 | n u16 | b u8 | highLen u32 |
//	             highWords u32 | high [..]u64 | lowWords u32 | low [..]u64
//	  numFreqBlocks u32
//	  per freq block: b u8 | words u16 | packed [..]u64
//
// Only the Elias-Fano form is serialized; a loaded index can re-derive the
// PForDelta baseline on demand for experiments.

const (
	magic   = "GRIF"
	version = 2
)

// ErrBadFormat is returned when the input is not a valid index file.
var ErrBadFormat = errors.New("index: bad file format")

// WriteTo serializes the index. It implements io.WriterTo. Every field
// is encoded into the writer's own 1 MB buffer, so serializing allocates
// that buffer and the sorted term list whatever the index size.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	e := &encoder{w: bufio.NewWriterSize(w, 1<<20)}
	e.str(magic)
	e.u32(version)
	e.u64(uint64(ix.NumDocs))
	e.u64(math.Float64bits(ix.AvgDocLen))
	for _, l := range ix.DocLens {
		e.u32(l)
	}
	terms := ix.Terms()
	e.u64(uint64(len(terms)))
	for _, term := range terms {
		p := ix.terms[term]
		e.u16(uint16(len(term)))
		e.str(term)
		e.u64(uint64(p.N))
		e.u32(uint32(len(p.EF.Blocks)))
		for i := range p.EF.Blocks {
			blk := &p.EF.Blocks[i]
			e.u32(blk.FirstDocID)
			e.u16(uint16(blk.N))
			e.u8(uint8(blk.B))
			e.u32(uint32(blk.HighLen))
			e.u32(uint32(len(blk.HighBits)))
			e.words(blk.HighBits)
			e.u32(uint32(len(blk.LowBits)))
			e.words(blk.LowBits)
		}
		e.u32(uint32(len(p.Freqs.blocks)))
		for i := range p.Freqs.blocks {
			fb := &p.Freqs.blocks[i]
			e.u8(fb.b)
			e.u16(uint16(len(fb.words)))
			e.words(fb.words)
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

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var err error
	read := func(v any) {
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, v)
		}
	}
	head := make([]byte, 4)
	if _, e := io.ReadFull(br, head); e != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, e)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, head)
	}
	var ver uint32
	read(&ver)
	if err == nil && ver != version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, ver)
	}

	ix := &Index{terms: make(map[string]*PostingList)}
	var numDocs uint64
	read(&numDocs)
	read(&ix.AvgDocLen)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if numDocs > 1<<34 {
		return nil, fmt.Errorf("%w: numDocs %d", ErrBadFormat, numDocs)
	}
	ix.NumDocs = int(numDocs)
	// Read doc lengths in bounded chunks: numDocs is untrusted, so a
	// single up-front allocation of numDocs*4 bytes would let a tiny
	// corrupt header demand gigabytes (found by FuzzReadIndex).
	ix.DocLens = make([]uint32, 0, min64(numDocs, 1<<20))
	for remaining := numDocs; remaining > 0 && err == nil; {
		chunk := min64(remaining, 1<<20)
		buf := make([]uint32, chunk)
		read(buf)
		if err == nil {
			ix.DocLens = append(ix.DocLens, buf...)
			remaining -= chunk
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: doc lengths: %v", ErrBadFormat, err)
	}

	var numTerms uint64
	read(&numTerms)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	for t := uint64(0); t < numTerms; t++ {
		var termLen uint16
		read(&termLen)
		termBytes := make([]byte, termLen)
		if err == nil {
			_, err = io.ReadFull(br, termBytes)
		}
		var n uint64
		var numBlocks uint32
		read(&n)
		read(&numBlocks)
		if err != nil {
			return nil, fmt.Errorf("%w: term %d: %v", ErrBadFormat, t, err)
		}
		// Structural sanity: lengths are attacker-controlled input; reject
		// anything inconsistent before allocating (found by FuzzReadIndex).
		if n > 1<<34 || uint64(numBlocks) != (n+BlockSize-1)/BlockSize {
			return nil, fmt.Errorf("%w: term %d: n=%d blocks=%d", ErrBadFormat, t, n, numBlocks)
		}
		l := &ef.List{N: int(n), Blocks: make([]ef.Block, numBlocks)}
		for i := range l.Blocks {
			blk := &l.Blocks[i]
			var bn uint16
			var bb uint8
			var highLen, highWords, lowWords uint32
			read(&blk.FirstDocID)
			read(&bn)
			read(&bb)
			read(&highLen)
			read(&highWords)
			if err != nil {
				return nil, fmt.Errorf("%w: block header: %v", ErrBadFormat, err)
			}
			// Per-block bounds: <= BlockSize elements; the high-bits array
			// of an EF block is < 3*BlockSize bits (encoder invariant) and
			// low bits are at most 32 per element.
			if bn == 0 || bn > BlockSize || bb > 32 ||
				highLen > 3*BlockSize || highWords > (3*BlockSize+63)/64 ||
				uint64(highWords)*64 < uint64(highLen) {
				return nil, fmt.Errorf("%w: block %d header out of bounds", ErrBadFormat, i)
			}
			blk.N = int(bn)
			blk.B = int(bb)
			blk.HighLen = int(highLen)
			blk.HighBits = make([]uint64, highWords)
			read(blk.HighBits)
			read(&lowWords)
			if err != nil {
				return nil, fmt.Errorf("%w: block high bits: %v", ErrBadFormat, err)
			}
			if lowWords > (BlockSize*32+63)/64 {
				return nil, fmt.Errorf("%w: block %d low bits out of bounds", ErrBadFormat, i)
			}
			blk.LowBits = make([]uint64, lowWords)
			read(blk.LowBits)
		}
		var numFreqBlocks uint32
		read(&numFreqBlocks)
		if err != nil {
			return nil, fmt.Errorf("%w: term payload: %v", ErrBadFormat, err)
		}
		if uint64(numFreqBlocks) != (n+BlockSize-1)/BlockSize {
			return nil, fmt.Errorf("%w: freq blocks %d for n=%d", ErrBadFormat, numFreqBlocks, n)
		}
		fs := &FreqStore{n: int(n), blocks: make([]freqBlock, numFreqBlocks)}
		for i := range fs.blocks {
			var words uint16
			read(&fs.blocks[i].b)
			read(&words)
			if err != nil {
				return nil, fmt.Errorf("%w: freq block: %v", ErrBadFormat, err)
			}
			if fs.blocks[i].b == 0 || fs.blocks[i].b > 32 || words > (BlockSize*32+63)/64 {
				return nil, fmt.Errorf("%w: freq block %d out of bounds", ErrBadFormat, i)
			}
			fs.blocks[i].words = make([]uint64, words)
			read(fs.blocks[i].words)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: term payload: %v", ErrBadFormat, err)
		}
		term := string(termBytes)
		ix.terms[term] = &PostingList{Term: term, N: int(n), EF: l, Freqs: fs, Skips: skipsOf(l)}
	}
	return ix, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
