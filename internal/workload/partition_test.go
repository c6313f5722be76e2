package workload

import (
	"testing"

	"griffin/internal/index"
)

func partitionTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateCorpus(CorpusSpec{
		NumDocs:    50_000,
		NumTerms:   60,
		MaxListLen: 20_000,
		MinListLen: 200,
		Alpha:      0.9,
		Codec:      index.CodecEF,
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
		for _, term := range c.Terms {
			pa, oka := a[s].Lookup(term)
			pb, okb := b[s].Lookup(term)
			if oka != okb {
				t.Fatalf("shard %d term %q: presence differs", s, term)
			}
			if !oka {
				continue
			}
			da, db := pa.EF.Decompress(), pb.EF.Decompress()
			if len(da) != len(db) {
				t.Fatalf("shard %d term %q: lengths differ", s, term)
			}
			for i := range da {
				if da[i] != db[i] {
					t.Fatalf("shard %d term %q: docID[%d] %d != %d", s, term, i, da[i], db[i])
				}
			}
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
