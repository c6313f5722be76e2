package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"griffin/internal/ef"
)

// FuzzReadIndex hammers the parser with corrupt inputs: it must return
// an error or an index that is safe to use — every block of every
// accepted input is read through select, the serial decode and both
// frequency lookups, and every document's length through DocLen, none
// of which may panic — and whose serialization is the input again. The seed corpus includes genuine serialized
// indexes plus truncations, bit flips, a zeroed high-bits word (which
// version 2 accepted, and Get then panicked on) and a block row broken in
// each way rowCorruptions lists.
func FuzzReadIndex(f *testing.F) {
	b := NewBuilder(CodecEF)
	_ = b.AddDocument(0, []string{"alpha", "beta"})
	_ = b.AddDocument(1, []string{"beta", "gamma", "beta"})
	ix, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte("GRIF"))
	flipped := append([]byte(nil), valid...)
	if len(flipped) > 20 {
		flipped[20] ^= 0xff
	}
	f.Add(flipped)
	_, blocks := fileOf(f, rejectIndex(f))
	f.Add(blocks)
	lay := layoutOf(f, blocks)
	zeroed := append([]byte(nil), blocks...)
	binary.LittleEndian.PutUint64(zeroed[lay.words:], 0)
	f.Add(zeroed)
	for _, c := range rowCorruptions(lay) {
		bad := append([]byte(nil), blocks...)
		c.edit(bad)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for garbage
		}
		if ix.DocLens.Len() != ix.NumDocs {
			t.Fatalf("%d lengths for %d documents", ix.DocLens.Len(), ix.NumDocs)
		}
		for d := range min(ix.NumDocs, 1<<22) { // a byte of input can claim a page of 4 096
			if l := ix.DocLen(uint32(d)); l == 0 {
				t.Fatalf("DocLen(%d) = 0", d)
			}
		}
		var ids [BlockSize]uint32
		for _, term := range ix.Terms() {
			pl, ok := ix.Lookup(term)
			if !ok || pl.N < 0 || pl.Freqs.Len() != pl.N {
				t.Fatalf("inconsistent parsed index: term %q", term)
			}
			for bi := range pl.EF.NumBlocks() {
				blk := pl.EF.Block(bi)
				n := pl.EF.DecompressBlock(bi, ids[:])
				if last := pl.EF.Get(bi, blk.N-1); n != blk.N || last != ids[n-1] {
					t.Fatalf("term %q block %d: decoded %d of %d, last %d vs Get %d", term, bi, n, blk.N, ids[n-1], last)
				}
				for i, id := range ids[:n] {
					pl.Freqs.At(bi*BlockSize + i)
					pl.FreqForDoc(id)
				}
			}
		}
		var out bytes.Buffer
		if _, err := ix.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input (%d bytes) serializes to different bytes (%d)", len(data), out.Len())
		}
	})
}

// FuzzSplice chains 1 to 8 splices onto a list of more than two pages,
// each at a block the input picks — 0, a page boundary or one block
// either side of it, inside the words a spliced page shares with the page
// it was cut from, exactly where they end, inside the words it owns, or
// anywhere — with a random tail. After every splice the list must decode
// to the flat model of its postings, serialize (listBytes) to the bytes
// of the list a Builder encodes from them, and parse back to those bytes. The first list is
// parsed from bytes, so its pages are views of a buffer, as an opened
// index's are of the mapping.
func FuzzSplice(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{0, 0, 0})
	f.Add(int64(2), uint16(300), []byte{1, 1, 0, 2, 3, 9, 3, 0, 0, 4, 7, 1})
	f.Add(int64(3), uint16(8191), []byte{1, 2, 2, 2, 1, 5, 4, 0, 3, 3, 0, 0, 5, 200, 7})
	f.Add(int64(4), uint16(5000), []byte{1, 3, 0, 4, 2, 1, 4, 9, 2, 2, 0, 1, 3, 5, 5, 1, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, extra uint16, script []byte) {
		r := rand.New(rand.NewSource(seed))
		const page = 1 << ef.PageShift
		ids, freqs := randomPostings(r, 2*page*BlockSize+1+int(extra)%(page*BlockSize))
		pl := parsedList(t, ids, freqs)
		for step := 0; step < 8 && len(script) >= 3; step++ {
			op, a, b := script[0], int(script[1]), int(script[2])
			script = script[3:]
			full := len(ids) / BlockSize // a prefix must end on a full block
			var k int
			switch op % 6 {
			case 0:
			case 1:
				k = a%(full/page+1)*page + b%3 - 1
			case 2, 3, 4:
				// Where a spliced page has its two runs: the rows whose words
				// are shared, the first owned, or past it. With no spliced
				// page yet, a cut near a page's end, where one shares.
				k = a%(full/page+1)*page - 1 - b%2
				var spliced []int
				for p, pg := range pl.EF.Pages {
					if len(pg.Owned()) > 0 {
						spliced = append(spliced, p)
					}
				}
				if len(spliced) == 0 {
					break
				}
				p := spliced[a%len(spliced)]
				pg := &pl.EF.Pages[p]
				sharedRows := 0
				for sharedRows < len(pg.Rows) && int(pg.Rows[sharedRows].Off) < len(pg.Words) {
					sharedRows++
				}
				switch op % 6 {
				case 2:
					k = p*page + 1 + b%sharedRows
				case 3:
					k = p*page + sharedRows
				case 4:
					k = p*page + sharedRows + b%(len(pg.Rows)-sharedRows+1)
				}
			case 5:
				k = a * (full + 1) / 256
			}
			k = max(0, min(k, full))

			// The tail: the model's from k on, thinned and with docIDs put
			// into its gaps, then some appended.
			prev, tids, tfreqs := int64(-1), []uint32(nil), []uint32(nil)
			if k > 0 {
				prev = int64(ids[k*BlockSize-1])
			}
			put := func(id int64, freq uint32) {
				if id > prev && id <= 1<<31 {
					tids, tfreqs = append(tids, uint32(id)), append(tfreqs, freq)
					prev = id
				}
			}
			freq := func() uint32 { return 1 + uint32(r.Intn(1<<uint(r.Intn(9)))) }
			drop := []int{0, 1, 20}[r.Intn(3)] // per cent of the tail
			for i, id := range ids[k*BlockSize:] {
				if r.Intn(100) >= drop {
					put(int64(id), freqs[k*BlockSize+i])
				}
				if r.Intn(50) == 0 {
					put(int64(id)+1, freq())
				}
			}
			for range r.Intn(3 * BlockSize) {
				put(prev+1+int64(r.Intn(40)), freq())
			}
			if k == 0 && len(tids) == 0 {
				put(0, freq())
			}

			next, err := SpliceList("t", pl, k, tids, tfreqs)
			if err != nil {
				t.Fatalf("step %d: splice at %d: %v", step, k, err)
			}
			ids = append(slices.Clip(ids[:k*BlockSize]), tids...)
			freqs = append(slices.Clip(freqs[:k*BlockSize]), tfreqs...)
			gotIDs, gotFreqs := next.DecodeFrom(0)
			if !slices.Equal(gotIDs, ids) || !slices.Equal(gotFreqs, freqs) {
				t.Fatalf("step %d: the list spliced at %d no longer decodes to its postings", step, k)
			}
			built, _ := refIndex(t, ids, freqs).Lookup("t")
			got := listBytes(t, next)
			if !bytes.Equal(got, listBytes(t, built)) {
				t.Fatalf("step %d: the list spliced at %d serializes to other bytes than the Builder's", step, k)
			}
			back, err := Parse(got)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if pl, _ := back.Lookup("t"); !bytes.Equal(listBytes(t, pl), got) {
				t.Fatalf("step %d: the list spliced at %d does not parse back to its bytes", step, k)
			}
			pl = next
		}
	})
}

// refIndex is the Builder's index of the one list "t".
func refIndex(t testing.TB, ids, freqs []uint32) *Index {
	t.Helper()
	b := NewBuilder(CodecEF)
	if err := b.AddPostings("t", ids, freqs); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// parsedList is the list "t" of ids and freqs, parsed from its bytes.
func parsedList(t testing.TB, ids, freqs []uint32) *PostingList {
	t.Helper()
	built, _ := refIndex(t, ids, freqs).Lookup("t")
	ix, err := Parse(listBytes(t, built))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := ix.Lookup("t")
	return pl
}
