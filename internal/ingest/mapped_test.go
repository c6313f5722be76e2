package ingest

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// TestMappedIndexIsNeverWritten runs everything that touches a loaded
// segment over one opened with index.Open — the golden query log in all
// four modes, a document partition, and a durable engine's mutate →
// merge → checkpoint → crash → recover → quiesce — next to the same run
// over the heap-built index, and holds the two equal. The mapping is
// read-only, so a single store through a mapped slice anywhere on those
// paths kills the test binary; where there is no mmap the final byte
// comparison against the file is what would notice.
func TestMappedIndexIsNeverWritten(t *testing.T) {
	corpus, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: 300_000, NumTerms: 60, MaxListLen: 80_000, MinListLen: 200,
		Alpha: 1.0, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	built := corpus.Index
	file := serialized(t, built)
	path := filepath.Join(t.TempDir(), "index.grif")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("golden query log, four modes", func(t *testing.T) {
		queries := workload.GenerateQueryLog(corpus, workload.QuerySpec{
			NumQueries: 200, PopularityAlpha: 0.7, Seed: 7,
		})
		for _, mode := range []core.Mode{core.CPUOnly, core.GPUOnly, core.Hybrid, core.PerQueryHybrid} {
			engines := make([]*core.Engine, 2)
			for i, ix := range []*index.Index{mapped, built} {
				cfg := core.Config{Mode: mode}
				if mode != core.CPUOnly {
					cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
				}
				if engines[i], err = core.New(ix, cfg); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range queries {
				got, err := engines[0].Search(q.Terms)
				if err != nil {
					t.Fatalf("%v query %d: %v", mode, qi, err)
				}
				want, err := engines[1].Search(q.Terms)
				if err != nil {
					t.Fatalf("%v query %d: %v", mode, qi, err)
				}
				if !reflect.DeepEqual(got.Docs, want.Docs) || !reflect.DeepEqual(got.Stats.Plan, want.Stats.Plan) ||
					got.Stats.Latency != want.Stats.Latency {
					t.Fatalf("%v query %d %v: mapped and built indexes answer differently", mode, qi, q.Terms)
				}
			}
		}
	})

	t.Run("partition", func(t *testing.T) {
		got, err := workload.PartitionIndex(mapped, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.PartitionIndex(built, 4)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want {
			if !sameContents(got[s], want[s]) {
				t.Errorf("shard %d of the mapped index differs from shard %d of the built one", s, s)
			}
		}
	})

	t.Run("merge, checkpoint, recover", func(t *testing.T) {
		// Tail appends (spliced behind shared — here mapped — blocks), an
		// update and a delete of documents inside the mapped segment.
		mutate := func(e *Cluster, r *rand.Rand, from, n int) {
			t.Helper()
			doc := func() []string {
				toks := make([]string, 4+r.Intn(5))
				for i := range toks {
					toks[i] = corpus.Terms[r.Intn(len(corpus.Terms))]
				}
				return toks
			}
			for i := 0; i < n; i++ {
				if err := e.Add(uint32(built.NumDocs+from+i), doc()); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Update(uint32(1000+from), doc()); err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(uint32(2000 + from)); err != nil {
				t.Fatal(err)
			}
		}
		run := func(ix *index.Index) *index.Index {
			t.Helper()
			cfg := Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: t.TempDir()}
			e, err := Open(ix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(18))
			mutate(e, r, 0, 40)
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mutate(e, r, 40, 10)
			e.Crash()

			rec, err := Open(ix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if got := rec.Gen(); got != 2*2+40+10 {
				t.Fatalf("recovered gen %d, want %d", got, 2*2+40+10)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			return segment(rec, 0)
		}
		checkSameIndex(t, run(mapped), run(built), "recovered over the mapped index")
	})

	checkSameIndex(t, mapped, built, "the mapped index after every subtest")
	if !bytes.Equal(serialized(t, mapped), file) {
		t.Error("the mapped index no longer serializes to its file")
	}
}
