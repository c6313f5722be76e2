package workload

import (
	"bytes"
	"testing"
)

func partitionTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateCorpus(CorpusSpec{
		NumDocs:    50_000,
		NumTerms:   60,
		MaxListLen: 20_000,
		MinListLen: 200,
		Alpha:      0.9,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPartitionIndexCoversEveryPosting(t *testing.T) {
	c := partitionTestCorpus(t)
	for _, shards := range []int{1, 2, 3, 4, 8} {
		ixs, err := PartitionCorpus(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(ixs) != shards {
			t.Fatalf("shards=%d: got %d indexes", shards, len(ixs))
		}
		for _, term := range c.Terms {
			gpl, ok := c.Index.Lookup(term)
			if !ok {
				t.Fatalf("term %q missing from source index", term)
			}
			want := gpl.EF.Decompress()
			wantFreqs := make([]uint32, len(want))
			for i := range want {
				wantFreqs[i] = gpl.Freqs.At(i)
			}
			got := make(map[uint32]uint32, len(want))
			total := 0
			for s, six := range ixs {
				spl, ok := six.Lookup(term)
				if !ok {
					continue
				}
				if spl.GlobalN != gpl.N {
					t.Fatalf("shards=%d term %q shard %d: GlobalN=%d want %d",
						shards, term, s, spl.GlobalN, gpl.N)
				}
				for i, d := range spl.EF.Decompress() {
					if ShardOf(d, shards) != s {
						t.Fatalf("shards=%d: doc %d on wrong shard %d", shards, d, s)
					}
					if _, dup := got[d]; dup {
						t.Fatalf("shards=%d term %q: doc %d appears twice", shards, term, d)
					}
					got[d] = spl.Freqs.At(i)
					total++
				}
			}
			if total != len(want) {
				t.Fatalf("shards=%d term %q: %d postings across shards, want %d",
					shards, term, total, len(want))
			}
			for i, d := range want {
				if f, ok := got[d]; !ok || f != wantFreqs[i] {
					t.Fatalf("shards=%d term %q doc %d: freq %d/%v want %d",
						shards, term, d, f, ok, wantFreqs[i])
				}
			}
		}
	}
}

func TestPartitionIndexKeepsGlobalStats(t *testing.T) {
	c := partitionTestCorpus(t)
	ixs, err := PartitionCorpus(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, six := range ixs {
		if six.NumDocs != c.Index.NumDocs {
			t.Errorf("shard %d: NumDocs=%d want %d", s, six.NumDocs, c.Index.NumDocs)
		}
		if six.AvgDocLen != c.Index.AvgDocLen {
			t.Errorf("shard %d: AvgDocLen=%v want %v", s, six.AvgDocLen, c.Index.AvgDocLen)
		}
		if six.DocLens.Len() != c.Index.DocLens.Len() {
			t.Errorf("shard %d: %d doc lens, want %d", s, six.DocLens.Len(), c.Index.DocLens.Len())
		}
	}
}

func TestPartitionIndexDeterministic(t *testing.T) {
	c := partitionTestCorpus(t)
	a, err := PartitionCorpus(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionCorpus(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if !sameContents(a[s], b[s]) {
			t.Fatalf("shard %d: two splits of one index differ", s)
		}
	}
}

func TestPartitionIndexRejectsBadShardCount(t *testing.T) {
	c := partitionTestCorpus(t)
	if _, err := PartitionCorpus(c, 0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := PartitionCorpus(c, -2); err == nil {
		t.Fatal("expected error for negative shards")
	}
}

// A shard's lists score with the collection's document frequencies, which
// the file format cannot carry: WriteTo refuses the shards of a real
// partition before writing a byte, and writes a 1-shard partition — every
// GlobalN its own N — as the file of the index it was split from.
func TestPartitionedShardsRefuseWriteTo(t *testing.T) {
	c := partitionTestCorpus(t)
	var want bytes.Buffer
	if _, err := c.Index.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionCorpus(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, ix := range shards {
		var buf bytes.Buffer
		if n, err := ix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
			t.Errorf("shard %d of 2: WriteTo wrote %d bytes (%v), want a refusal and nothing written", s, buf.Len(), err)
		}
	}
	one, err := PartitionCorpus(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := one[0].WriteTo(&got); err != nil {
		t.Fatalf("1-shard partition: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("a 1-shard partition does not write the file of the index it was split from")
	}
}
