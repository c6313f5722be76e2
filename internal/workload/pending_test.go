package workload

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"griffin/internal/index"
)

// pendingTestIndex is partitionTestCorpus's index plus a term whose
// postings all land on shard 0 of 4 and a one-posting term: terms some
// shards hold nothing of.
func pendingTestIndex(t *testing.T) *index.Index {
	t.Helper()
	c := partitionTestCorpus(t)
	b := index.NewBuilder(index.CodecEF)
	for _, term := range c.Index.Terms() {
		pl, _ := c.Index.Lookup(term)
		ids, freqs := pl.DecodeFrom(0)
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	oneShard, freqs := make([]uint32, 3*index.BlockSize), make([]uint32, 3*index.BlockSize)
	for i := range oneShard {
		oneShard[i], freqs[i] = uint32(4*(i+1)), 1+uint32(i%7)
	}
	if err := b.AddPostings("x-one-shard", oneShard, freqs); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPostings("x-single", []uint32{4001}, []uint32{2}); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLookupsRaceTheSplit looks every term up on every shard from many
// goroutines, each in an order of its own, while the split runs and one
// term, which three of the four shards hold nothing of, is held unsplit.
// Every lookup returns the list PartitionIndex makes, absent where it
// makes none; a lookup of the held term returns only after the term is
// released, absent or not; an unknown term reads absent at once; the
// shards' dictionary size is known throughout. Once Wait returns the
// shards are the ones PartitionIndex returns, and the split has left no
// goroutine behind.
func TestLookupsRaceTheSplit(t *testing.T) {
	const shards, readers = 4, 8
	ix := pendingTestIndex(t)
	want, err := PartitionIndex(ix, shards)
	if err != nil {
		t.Fatal(err)
	}
	terms := ix.Terms()
	held := -1
	for i, term := range terms {
		if term == "x-one-shard" {
			held = i
		}
	}
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	var released atomic.Bool
	p, err := startPartition(ix, shards, func(t int) {
		if t == held {
			<-release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Shards()
	if n, ok := index.PendingTerms(got); !ok || n != len(terms) {
		t.Errorf("dictionary size while the split runs: %d (known %v), want %d", n, ok, len(terms))
	}
	if _, ok := got[1].Lookup("no-such-term"); ok {
		t.Error("an unknown term reads present")
	}

	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range rand.New(rand.NewSource(int64(r))).Perm(len(terms) * shards) {
				term, s := terms[k/shards], k%shards
				pl, ok := got[s].Lookup(term)
				if term == terms[held] && !released.Load() {
					t.Errorf("shard %d answered the held term (present %v) before its split", s, ok)
				}
				w, wok := want[s].Lookup(term)
				if ok != wok || ok && !sameContents(pl, w) {
					t.Errorf("shard %d term %q: lookup (present %v) differs from PartitionIndex's (present %v)", s, term, ok, wok)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the readers reach the held term
	released.Store(true)
	close(release)
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if !sameContents(got[s], want[s]) {
			t.Errorf("shard %d differs from PartitionIndex's once the split ended", s)
		}
	}
	if _, ok := index.PendingTerms(got); ok {
		t.Error("the shards still read as pending once the split ended")
	}
	if st := p.Stats(); st.Waits == 0 || st.Waited <= 0 {
		t.Errorf("stats count %d waiting lookups, %v waited; the held term's readers waited", st.Waits, st.Waited)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Wait, %d before the split", runtime.NumGoroutine(), baseline)
		}
	}
}

// lookupsWhileSplitting splits ix again behind StartPartition and, from
// one to four goroutines that each look every (term, shard) up in an
// order r draws, holds each list a lookup returns to want's, absent
// where it is absent. The split holds a drawn term until every goroutine
// has started, so the lookups race it.
func lookupsWhileSplitting(t *testing.T, r *rand.Rand, ix *index.Index, want []*index.Index) {
	t.Helper()
	terms, n := ix.Terms(), len(want)
	readers, held := 1+r.Intn(4), r.Intn(len(terms))
	var started, wg sync.WaitGroup
	started.Add(readers)
	p, err := startPartition(ix, n, func(t int) {
		if t == held {
			started.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Shards()
	for range readers {
		order := r.Perm(len(terms) * n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			for _, k := range order {
				term, s := terms[k/n], k%n
				pl, ok := got[s].Lookup(term)
				w, wok := want[s].Lookup(term)
				if ok != wok || ok && !sameContents(pl, w) {
					t.Errorf("%d shards: shard %d term %q: lookup while splitting (present %v) differs from the list-at-a-time split's (present %v)",
						n, s, term, ok, wok)
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}
