package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"griffin/internal/ef"
)

// shapedIndex is an index whose lists cover the block shapes the format
// has to carry: empty, one posting, exactly one block, one block and a
// bit, dense (no low bits), sparse (wide low bits), and a long list.
func shapedIndex(t testing.TB, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(CodecEF)
	add := func(term string, n, maxGap int) {
		ids := make([]uint32, n)
		freqs := make([]uint32, n)
		cur := uint32(rng.Intn(50))
		for i := range ids {
			cur += 1 + uint32(rng.Intn(maxGap))
			ids[i] = cur
			freqs[i] = 1 + uint32(rng.Intn(1<<uint(rng.Intn(6))))
			b.SetDocLen(cur, 5+uint32(rng.Intn(200)))
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	add("empty", 0, 1)
	add("one", 1, 1)
	add("block", BlockSize, 40)
	add("block-and-a-bit", BlockSize+1, 40)
	add("dense", 3*BlockSize+17, 1)
	add("sparse", 2*BlockSize+5, 1<<12)
	add("long-odd-term", 40*BlockSize+77, 300)
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func fileOf(t testing.TB, ix *Index) (path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	path = filepath.Join(t.TempDir(), "index.grif")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// misaligned returns a copy of data at an odd address.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// TestOpenMapped: an opened file is the index that was written — every
// statistic, list, block, frequency block and skip pointer deep-equal to
// the built one — and writing it again reproduces the file byte for
// byte, through Open, ReadIndex and the copying parse of a misaligned
// buffer alike.
func TestOpenMapped(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		built := shapedIndex(t, seed)
		path, data := fileOf(t, built)

		opened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadIndex(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		copied, err := Parse(misaligned(data))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Index{"Open": opened, "ReadIndex": read, "misaligned Parse": copied} {
			if !reflect.DeepEqual(got, built) {
				t.Errorf("seed %d: %s is not the built index", seed, name)
			}
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Errorf("seed %d: WriteTo of %s differs from the file", seed, name)
			}
		}
	}
}

// TestOpenMappedViewsTheBuffer pins which path ran: parsed from an
// aligned buffer the index aliases it — its doc lengths, block rows and
// words alike (a change to the buffer shows through) — parsed from a
// misaligned one it holds copies.
func TestOpenMappedViewsTheBuffer(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: every parse copies")
	}
	_, data := fileOf(t, shapedIndex(t, 4))
	lay := layoutOf(t, data)
	for _, tc := range []struct {
		name  string
		buf   []byte
		views bool
	}{
		{"aligned", append([]byte(nil), data...), true},
		{"misaligned", misaligned(data), false},
	} {
		ix, err := Parse(tc.buf)
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := ix.Lookup(lay.term)
		docLen, first, high := ix.DocLens.At(0), pl.EF.First(0), pl.EF.Block(0).HighBits[0]
		tc.buf[lay.lenWords] ^= 0xff
		tc.buf[lay.table] ^= 0xff // block 0's first docID
		tc.buf[lay.words] ^= 0xff
		changed := ix.DocLens.At(0) != docLen && pl.EF.First(0) != first && pl.EF.Block(0).HighBits[0] != high
		same := ix.DocLens.At(0) == docLen && pl.EF.First(0) == first && pl.EF.Block(0).HighBits[0] == high
		if tc.views && !changed || !tc.views && !same {
			t.Errorf("%s buffer: views = %v, want %v", tc.name, changed, tc.views)
		}
	}
}

// layout locates the sections of a serialized index's first list.
type layout struct {
	term              string
	widthPad          int // padding after the doc-length widths
	lenWords          int // doc-length words
	lenLast           int // the last of them, before the trailing word
	list              int // list record: n | numBlocks | termLen | term
	termPad           int // padding after the term
	table             int // Elias-Fano rows
	freqTable         int // frequency rows
	words, freqWords  int // Elias-Fano words, frequency words
	next              int // first byte after the list
	blocks, highWords int // block count; block 0's high-bits words
}

func layoutOf(t testing.TB, data []byte) layout {
	t.Helper()
	var l layout
	numDocs := int(binary.LittleEndian.Uint64(data[8:]))
	widths := data[headerLen:][:(numDocs+lenPageSize-1)>>DocLenShift]
	l.widthPad = headerLen + len(widths)
	l.lenWords = (l.widthPad + 7) &^ 7
	l.lenLast = l.lenWords - 8
	for p, w := range widths {
		l.lenLast += 8 * packedWords(min(lenPageSize, numDocs-p<<DocLenShift), uint(w))
	}
	l.list = l.lenLast + 16
	l.blocks = int(binary.LittleEndian.Uint32(data[l.list+8:]))
	termLen := int(binary.LittleEndian.Uint16(data[l.list+12:]))
	l.term = string(data[l.list+14 : l.list+14+termLen])
	l.termPad = l.list + 14 + termLen
	l.table = (l.termPad + 7) &^ 7
	l.freqTable = (l.table + rowLen*l.blocks + 7) &^ 7
	l.words = (l.freqTable + freqRowLen*l.blocks + 7) &^ 7
	l.freqWords = l.words
	l.next = l.words
	for i := 0; i < l.blocks; i++ {
		r, fr := data[l.table+i*rowLen:], data[l.freqTable+i*freqRowLen:]
		ef := 8 * (int(r[10]) + int(r[11]))
		l.freqWords += ef
		l.next += ef + 8*int(fr[3])
	}
	l.highWords = int(data[l.table+10])
	return l
}

// row returns the bytes of Elias-Fano row i of the list onward.
func (l layout) row(data []byte, i int) []byte { return data[l.table+i*rowLen:] }

// freqRow returns the bytes of frequency row i of the list onward.
func (l layout) freqRow(data []byte, i int) []byte { return data[l.freqTable+i*freqRowLen:] }

// rejectIndex is an index whose first list in term order ("aaa") has
// three blocks with low bits (an odd count, so padding follows each of
// its row arrays), behind a doc-length table of one page
// (so its width is followed by padding) whose lengths end inside a word
// (so that word has bits past them).
func rejectIndex(t testing.TB) *Index {
	t.Helper()
	b := NewBuilder(CodecEF)
	ids := make([]uint32, 2*BlockSize+40)
	freqs := make([]uint32, len(ids))
	for i := range ids {
		ids[i] = uint32(10 + 5*i)
		freqs[i] = uint32(1 + i%7)
	}
	if err := b.AddPostings("aaa", ids, freqs); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPostings("zz", []uint32{3, 9, 4000}, nil); err != nil {
		t.Fatal(err)
	}
	b.SetDocLen(ids[len(ids)-1]+1, 12) // width 4
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, width := ix.DocLens.Page(0); ix.NumDocs*width%64 == 0 || ix.DocLens.NumPages() != 1 {
		t.Fatalf("fixture has %d docs of width %d in %d pages, want one page ending inside a word",
			ix.NumDocs, width, ix.DocLens.NumPages())
	}
	return ix
}

// mustReject holds data to ErrBadFormat through all three entry points.
func mustReject(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.grif")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(path)
	_, readErr := ReadIndex(bytes.NewReader(data))
	_, parseErr := Parse(misaligned(data))
	for entry, err := range map[string]error{"Open": openErr, "ReadIndex": readErr, "misaligned Parse": parseErr} {
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %s err = %v, want ErrBadFormat", name, entry, err)
		}
	}
}

// TestOpenRejects: every way a file can disagree with the layout is
// ErrBadFormat at open — never an index whose Get, decode or frequency
// lookup would index out of range later.
func TestOpenRejects(t *testing.T) {
	_, good := fileOf(t, rejectIndex(t))
	lay := layoutOf(t, good)
	if lay.term != "aaa" || lay.blocks != 3 || lay.widthPad == lay.lenWords || lay.termPad == lay.table ||
		lay.table+rowLen*lay.blocks == lay.freqTable || lay.freqTable+freqRowLen*lay.blocks == lay.words {
		t.Fatalf("fixture layout: %+v", lay)
	}
	if _, err := Parse(good); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	row, freq := lay.row, lay.freqRow
	edit := func(f func(data []byte)) []byte {
		data := append([]byte(nil), good...)
		f(data)
		return data
	}

	// Truncation: at every section boundary through all three entry
	// points, and at every single length through the parser.
	for _, at := range []int{0, 3, 4, 8, 31, headerLen, lay.widthPad, lay.lenWords, lay.lenLast, lay.lenLast + 8,
		lay.list, lay.list + 14, lay.termPad,
		lay.table, lay.table + rowLen, lay.freqTable, lay.freqTable + freqRowLen,
		lay.words, lay.words + 8, lay.freqWords, lay.next, len(good) - 1} {
		mustReject(t, fmt.Sprintf("truncated at %d", at), good[:at])
	}
	for at := 0; at < len(good); at++ {
		if _, err := Parse(good[:at:at]); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncated at %d of %d: err = %v, want ErrBadFormat", at, len(good), err)
		}
	}
	mustReject(t, "trailing byte", append(append([]byte(nil), good...), 0))

	// Versions: anything but 5, and genuine files of versions 2 to 4,
	// refused with an error that names the version and the way out.
	for _, v := range []uint32{0, 2, 3, 4, 6} {
		mustReject(t, fmt.Sprintf("version %d", v), edit(func(d []byte) { le.PutUint32(d[4:], v) }))
	}
	for _, v := range []int{2, 3, 4} {
		old, err := os.ReadFile(fmt.Sprintf("testdata/index_v%d.grif", v))
		if err != nil {
			t.Fatal(err)
		}
		mustReject(t, fmt.Sprintf("version-%d file", v), old)
		_, err = Parse(old)
		if msg := err.Error(); !errors.Is(err, ErrVersion) || !strings.Contains(msg, fmt.Sprintf("version %d,", v)) || !strings.Contains(msg, "griffin-indexer") {
			t.Errorf("version-%d file: %q names neither its version nor how to rebuild it", v, msg)
		}
	}

	// Sections off their aligned offsets: padding that is not zero, and
	// a writer that left the padding out so everything behind it shifts.
	mustReject(t, "doc-length padding not zero", edit(func(d []byte) { d[lay.widthPad] = 1 }))
	mustReject(t, "term padding not zero", edit(func(d []byte) { d[lay.table-1] = 1 }))
	mustReject(t, "term padding left out",
		append(append([]byte(nil), good[:lay.termPad]...), good[lay.table:]...))
	mustReject(t, "doc-length padding left out",
		append(append([]byte(nil), good[:lay.widthPad]...), good[lay.lenWords:]...))

	// The doc-length table: a width no length has, a width array that is
	// missing, bits set where no length is, a page count past the file.
	mustReject(t, "doc-length width over 32", edit(func(d []byte) { d[headerLen] = 33 }))
	mustReject(t, "doc-length widths left out",
		append(append([]byte(nil), good[:headerLen]...), good[lay.lenWords:]...))
	mustReject(t, "bits past the last length not zero", edit(func(d []byte) { d[lay.lenLast+7] |= 0x80 }))
	mustReject(t, "trailing doc-length word not zero", edit(func(d []byte) { d[lay.lenLast+8] = 1 }))
	mustReject(t, "numDocs has more pages than the file has bytes", edit(func(d []byte) { le.PutUint64(d[8:], 1<<33) }))

	// Headers that disagree with each other.
	mustReject(t, "numDocs out of range", edit(func(d []byte) { le.PutUint64(d[8:], 1<<35) }))
	mustReject(t, "numTerms too large", edit(func(d []byte) { le.PutUint64(d[16:], 3) }))
	mustReject(t, "numTerms too small", edit(func(d []byte) { le.PutUint64(d[16:], 1) }))
	mustReject(t, "block count does not fit n", edit(func(d []byte) { le.PutUint64(d[lay.list:], 5*BlockSize) }))
	mustReject(t, "terms out of order", edit(func(d []byte) { copy(d[lay.list+14:], "zz") }))
	mustReject(t, "short block in the middle", edit(func(d []byte) { row(d, 1)[8] = BlockSize - 1 }))
	mustReject(t, "last block overfull", edit(func(d []byte) { row(d, 2)[8] = 41 }))
	mustReject(t, "low-bit width over 32", edit(func(d []byte) { row(d, 0)[9] = 33 }))
	mustReject(t, "frequency width zero", edit(func(d []byte) { freq(d, 0)[2] = 0 }))
	mustReject(t, "first docIDs not ascending", edit(func(d []byte) { le.PutUint32(row(d, 1)[0:], le.Uint32(row(d, 0)[0:])) }))
	for _, c := range rowCorruptions(lay) {
		mustReject(t, c.name, edit(c.edit))
	}

	// The three checks that keep Get, DecompressBlock and Freqs.At in
	// range: ones in the high bits == n, low words cover n*b bits,
	// frequency words cover n*freqB bits (the last in rowCorruptions).
	mustReject(t, "zeroed high-bits word", edit(func(d []byte) { le.PutUint64(d[lay.words:], 0) }))
	mustReject(t, "one-bit beyond HighLen", edit(func(d []byte) {
		last := lay.words + 8*(lay.highWords-1)
		le.PutUint64(d[last:], le.Uint64(d[last:])|1<<63)
	}))
	mustReject(t, "low words short of n*b", edit(func(d []byte) { row(d, 0)[9] = 32 }))
}

// corruption is a named edit of a valid file.
type corruption struct {
	name string
	edit func(data []byte)
}

// rowCorruptions are edits of the file rejectIndex writes (laid out as
// lay) that break a block row in each way a v5 table can disagree with
// itself: a row's words not where its predecessor's end, high bits longer
// than their words, a full block where the last must be short, frequency
// words short of n*b, and a pad byte after either array that is not
// zero. TestOpenRejects holds each to ErrBadFormat, and FuzzReadIndex
// starts from them.
func rowCorruptions(lay layout) []corruption {
	le := binary.LittleEndian
	row, freq := lay.row, lay.freqRow
	return []corruption{
		{"row offset past its predecessor's words", func(d []byte) { le.PutUint16(row(d, 1)[4:], le.Uint16(row(d, 1)[4:])+1) }},
		{"first row offset not zero", func(d []byte) { le.PutUint16(row(d, 0)[4:], 1) }},
		{"frequency row offset inside its predecessor's words", func(d []byte) { le.PutUint16(freq(d, 2)[0:], le.Uint16(freq(d, 2)[0:])-1) }},
		{"high bits longer than their words", func(d []byte) { le.PutUint16(row(d, 0)[6:], uint16(64*lay.highWords+1)) }},
		{"full-size last block", func(d []byte) { row(d, 2)[8] = BlockSize }},
		{"frequency words short of n*b", func(d []byte) { freq(d, 0)[2] = 32 }},
		{"row padding not zero", func(d []byte) { d[lay.table+rowLen*lay.blocks] = 1 }},
		{"frequency row padding not zero", func(d []byte) { d[lay.freqTable+freqRowLen*lay.blocks+3] = 1 }},
	}
}

// TestFreqForDocMatchesDecodedSearch holds the select-probing lookup to
// the search it replaced — decode the candidate block, binary-search the
// values — on every posting and on absent docIDs: same frequency, same
// probe count (ingest bills it), same verdict.
func TestFreqForDocMatchesDecodedSearch(t *testing.T) {
	reference := func(p *PostingList, d uint32) (uint32, int, bool) {
		probes := 0
		lo, hi := 0, p.EF.NumBlocks()
		for lo < hi {
			probes++
			if mid := (lo + hi) / 2; p.EF.Block(mid).FirstDocID <= d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return 0, probes, false
		}
		var buf [BlockSize]uint32
		n := p.EF.DecompressBlock(lo-1, buf[:])
		blo, bhi := 0, n
		for blo < bhi {
			probes++
			mid := (blo + bhi) / 2
			switch {
			case buf[mid] < d:
				blo = mid + 1
			case buf[mid] > d:
				bhi = mid
			default:
				return p.Freqs.At((lo-1)*BlockSize + mid), probes, true
			}
		}
		return 0, probes, false
	}
	ix := shapedIndex(t, 5)
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		probe := []uint32{0, 1, 1 << 31}
		for _, id := range pl.EF.Decompress() {
			probe = append(probe, id, id+1)
		}
		for _, d := range probe {
			gf, gp, gok := pl.FreqForDoc(d)
			wf, wp, wok := reference(pl, d)
			if gf != wf || gp != wp || gok != wok {
				t.Fatalf("term %q doc %d: FreqForDoc = (%d, %d, %v), decoded search = (%d, %d, %v)",
					term, d, gf, gp, gok, wf, wp, wok)
			}
		}
	}
}

// pagedIndex is three lists of 64 whole pages of blocks each, 12 288
// blocks in all: what an index costs per block, without size classes
// rounding short tables up. Every 64th document has a length, so every
// page of the length table has words.
func pagedIndex(t testing.TB) *Index {
	t.Helper()
	const terms, perTerm = 3, 64 << ef.PageShift * BlockSize
	rng := rand.New(rand.NewSource(26))
	b := NewBuilder(CodecEF)
	ids, freqs := make([]uint32, perTerm), make([]uint32, perTerm)
	for term := range terms {
		cur := uint32(0)
		for i := range ids {
			cur += 1 + uint32(rng.Intn(3))
			ids[i], freqs[i] = cur, 1+uint32(rng.Intn(6))
		}
		if err := b.AddPostings(string(rune('a'+term)), ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint32(0); d <= ids[len(ids)-1]; d += 64 {
		b.SetDocLen(d, 100+d%700)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// BenchmarkOpen times Parse over the bytes of an index file — what Open
// does once it has mapped them — and reports what it costs a block in
// time and in heap left behind.
func BenchmarkOpen(b *testing.B) {
	ix := pagedIndex(b)
	_, data := fileOf(b, ix)
	blocks := 0
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		blocks += pl.EF.NumBlocks()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept, err := Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(blocks), "heap-B/block")
}
