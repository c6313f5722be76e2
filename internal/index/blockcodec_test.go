package index

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"griffin/internal/bitutil"
	"griffin/internal/ef"
	"griffin/internal/pvec"
)

// refPackFreqs is the bit-at-a-time frequency encoder the package had
// before PackFreqs packed a block per call into one slab: a
// bitutil.Writer per block, one WriteBits per frequency. The block codec
// is held to its bytes, and to FreqStore.At — the per-element decoder —
// for what comes back.
func refPackFreqs(freqs []uint32) *FreqStore {
	var blocks []freqBlock
	for start := 0; start < len(freqs); start += BlockSize {
		chunk := freqs[start:min(start+BlockSize, len(freqs))]
		b := 1
		for _, f := range chunk {
			if w := bitutil.BitsFor(uint64(f)); w > b {
				b = w
			}
		}
		w := bitutil.NewWriter(len(chunk) * b)
		for _, f := range chunk {
			w.WriteBits(uint64(f), b)
		}
		blocks = append(blocks, freqBlock{b: uint8(b), words: w.Words()})
	}
	return &FreqStore{n: len(freqs), blocks: pvec.Of(ef.PageShift, blocks)}
}

// freqsOfWidth draws n frequencies of at most width bits, the widest of
// them exactly width bits wide.
func freqsOfWidth(r *rand.Rand, n, width int) []uint32 {
	freqs := make([]uint32, n)
	for i := range freqs {
		freqs[i] = uint32(r.Uint64() & (1<<uint(width) - 1))
	}
	freqs[r.Intn(n)] |= 1 << uint(width-1)
	return freqs
}

func TestPackFreqsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 256, 257, 1000} {
		for width := 1; width <= 32; width++ {
			freqs := freqsOfWidth(r, n, width)
			got, want := PackFreqs(freqs), refPackFreqs(freqs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d width=%d: PackFreqs differs from the reference encoding", n, width)
			}
			var buf [BlockSize]uint32
			for k := range got.blocks.Len() {
				if cap(got.block(k).words) != len(got.block(k).words) {
					t.Fatalf("n=%d width=%d: an append to block %d's words would reach its neighbour's", n, width, k)
				}
				m := got.DecodeBlock(k, buf[:])
				if !reflect.DeepEqual(buf[:m], freqs[k*BlockSize:][:m]) || m != len(freqBlockOf(freqs, k)) {
					t.Fatalf("n=%d width=%d: DecodeBlock(%d) = %v", n, width, k, buf[:m])
				}
			}
			for i, f := range freqs {
				if got.At(i) != f {
					t.Fatalf("n=%d width=%d: At(%d) = %d, want %d", n, width, i, got.At(i), f)
				}
			}
			if !reflect.DeepEqual(got.Decode(), freqs) {
				t.Fatalf("n=%d width=%d: Decode differs", n, width)
			}
		}
	}
	// All zeros still takes one bit per value.
	if got, want := PackFreqs(make([]uint32, 130)), refPackFreqs(make([]uint32, 130)); !reflect.DeepEqual(got, want) {
		t.Fatal("zero frequencies: PackFreqs differs from the reference encoding")
	}
}

// No frequencies at all is a store with no pages of blocks — what the
// bit-at-a-time encoder returned and what Parse gives an empty list of an
// opened file, which reflect.DeepEqual(Open(f), built) compares.
func TestPackFreqsKeepsNilBlocks(t *testing.T) {
	if fs := PackFreqs(nil); fs.blocks.Pages() != nil || fs.n != 0 {
		t.Errorf("PackFreqs(nil) = %+v, want no pages", fs)
	}
	if fs := PackFreqs([]uint32{}); fs.blocks.Pages() != nil {
		t.Errorf("PackFreqs(empty).blocks = %#v, want no pages", fs.blocks)
	}
	if fs := refPackFreqs(nil); fs.blocks.Pages() != nil {
		t.Fatalf("the reference's empty store has blocks %#v: the test's premise is gone", fs.blocks)
	}
	var e freqEncoder
	if fs := e.finish(); !reflect.DeepEqual(fs, PackFreqs(nil)) {
		t.Errorf("freqEncoder.finish() of nothing = %+v, want %+v", fs, PackFreqs(nil))
	}
}

// PackFreqs allocates the store, its block table (a page table and a
// page per 64 blocks) and a slab per ef.ChunkWords words, nothing per
// block; with ef.Compress's same four that is what encoding a list of a
// few thousand postings costs. The
// bit-at-a-time encoders allocated per block.
func TestPackFreqsAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for _, n := range []int{100, 10_000, 300_000} {
		freqs := freqsOfWidth(r, n, 5)
		fs, words := PackFreqs(freqs), 0
		for k := range fs.blocks.Len() {
			words += len(fs.block(k).words)
		}
		ceiling := float64(3 + len(fs.blocks.Pages()) + words/(ef.ChunkWords*7/8)) // a slab's last few words go unused
		if got := testing.AllocsPerRun(20, func() { PackFreqs(freqs) }); got > ceiling {
			t.Errorf("n=%d (%d words): PackFreqs made %v allocations, want <= %v", n, words, got, ceiling)
		}
	}
}

// A ListEncoder fed a list block by block returns the list SpliceList
// encodes from the whole of it — the same bytes in the same shapes — list
// after list on the same scratch, for both codec configurations.
func TestListEncoderEqualsSpliceList(t *testing.T) {
	for _, codec := range []Codec{CodecEF, CodecBoth} {
		r := rand.New(rand.NewSource(int64(79 + codec)))
		enc := ListEncoder{Codec: codec}
		for _, n := range []int{700, 1, 128, 129, 4000, 127, 256} {
			ids, freqs := randomPostings(r, n)
			for start := 0; start < n; start += BlockSize {
				end := min(start+BlockSize, n)
				if err := enc.Append(ids[start:end], freqs[start:end]); err != nil {
					t.Fatalf("codec %d n=%d: Append at %d: %v", codec, n, start, err)
				}
			}
			if enc.Len() != n {
				t.Fatalf("codec %d n=%d: Len = %d", codec, n, enc.Len())
			}
			want, err := SpliceList("t", nil, 0, ids, freqs, codec)
			if err != nil {
				t.Fatal(err)
			}
			if got := enc.Finish("t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("codec %d n=%d: the encoder's list differs from SpliceList's", codec, n)
			}
		}
		if err := enc.Append([]uint32{1, 2}, []uint32{1}); err == nil {
			t.Errorf("codec %d: %d freqs for 2 docIDs accepted", codec, 1)
		}
		want, _ := SpliceList("e", nil, 0, nil, nil, codec)
		if got := enc.Finish("e"); !reflect.DeepEqual(got, want) {
			t.Errorf("codec %d: the empty list differs from SpliceList's:\n got %+v\nwant %+v", codec, got, want)
		}
	}
}

// DecodeFrom goes through the block decoders; it must return what the
// per-element accessors return.
func TestDecodeFromMatchesElementAccess(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	ids, freqs := randomPostings(r, 3*BlockSize+17)
	pl, err := SpliceList("t", nil, 0, ids, freqs, CodecEF)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pl.EF.Blocks.Len(); k++ {
		gotIDs, gotFreqs := pl.DecodeFrom(k)
		skip := k * BlockSize
		if len(gotIDs) != len(ids)-skip || len(gotFreqs) != len(gotIDs) {
			t.Fatalf("k=%d: %d ids, %d freqs, want %d", k, len(gotIDs), len(gotFreqs), len(ids)-skip)
		}
		for i := range gotIDs {
			bi, in := (skip+i)/BlockSize, (skip+i)%BlockSize
			if gotIDs[i] != pl.EF.Block(bi).Get(in) || gotFreqs[i] != pl.FreqOf(skip+i) {
				t.Fatalf("k=%d: posting %d = (%d, %d), want (%d, %d)", k, i, gotIDs[i], gotFreqs[i],
					pl.EF.Block(bi).Get(in), pl.FreqOf(skip+i))
			}
		}
	}
}

func benchFreqs(n int) []uint32 {
	r := rand.New(rand.NewSource(82))
	freqs := make([]uint32, n)
	for i := range freqs {
		freqs[i] = 1 + uint32(r.Intn(1<<uint(r.Intn(6))))
	}
	return freqs
}

func BenchmarkPackFreqs(b *testing.B) {
	freqs := benchFreqs(1 << 17)
	b.SetBytes(int64(len(freqs) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackFreqs(freqs)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	fs := PackFreqs(benchFreqs(1 << 17))
	var buf [BlockSize]uint32
	b.SetBytes(int64(fs.n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range fs.blocks.Len() {
			fs.DecodeBlock(k, buf[:])
		}
	}
}

// A spliced list shares its untouched leading blocks with the list it
// replaces, and so keeps alive whatever allocation those blocks' words
// lie in — the replaced list's dead tail included, if that is the same
// allocation. That is why an encoded list is cut from slabs of at most
// ef.ChunkWords words and not from one: a list merged again and again,
// each time a little further in, holds on to a few KB per merge, not to a
// stale copy of its tail per merge (with one slab per list, 40 splices of
// the list below kept 15 times the list alive).
func TestSplicedListsDoNotPinDeadSlabs(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	r := rand.New(rand.NewSource(83))
	ids, freqs := randomPostings(r, 200_000)
	before := heap()
	pl, err := SpliceList("t", nil, 0, ids, freqs, CodecEF)
	if err != nil {
		t.Fatal(err)
	}
	fresh := heap() - before
	blocks := pl.EF.Blocks.Len()
	for i := 1; i <= 40; i++ {
		k := i * blocks / 41
		if pl, err = SpliceList("t", pl, k, ids[k*BlockSize:], freqs[k*BlockSize:], CodecEF); err != nil {
			t.Fatal(err)
		}
	}
	spliced := heap() - before
	runtime.KeepAlive(pl)
	runtime.KeepAlive(ids) // in both measurements
	runtime.KeepAlive(freqs)
	t.Logf("a fresh list keeps %d KB, the same list after 40 splices %d KB", fresh>>10, spliced>>10)
	// A splice can strand the dead part of one docID slab and one
	// frequency slab: the two its last shared block lies in.
	if ceiling := fresh + 40*2*ef.ChunkWords*8; spliced > ceiling {
		t.Errorf("after 40 splices the list keeps %d bytes alive, a fresh encoding of it %d, want <= %d: spliced lists pin dead slabs", spliced, fresh, ceiling)
	}
}
