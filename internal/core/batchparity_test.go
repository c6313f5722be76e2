package core

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// The batching golden parity matrix: batching off and on, across
// execution modes and device counts, every configuration must reproduce
// the stored pre-batching goldens bit for bit — score bits, candidate
// counts, migration flags, and (for sequential contention-free queries)
// the full per-op trace including simulated timings. Batching moves
// simulated time only under cross-query concurrency; sequential queries
// through an enabled batcher lead rebate-free batches of one, so even
// their timelines must not move.
func TestBatchingGoldenParityMatrix(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 200, PopularityAlpha: 0.7, Seed: 7,
	})
	const n = 60 // prefix of the golden log: the matrix is 12 engine runs

	data, err := readGolden(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []Mode{CPUOnly, GPUOnly, Hybrid} {
		wantRows, ok := want.Modes[mode.String()]
		if !ok {
			t.Fatalf("golden corpus has no mode %s", mode)
		}
		for _, devices := range []int{1, 2} {
			for _, window := range []time.Duration{0, 200 * time.Microsecond} {
				label := fmt.Sprintf("%s/devices=%d/window=%v", mode, devices, window)
				cfg := Config{Mode: mode, Devices: devices, BatchWindow: window}
				if mode != CPUOnly {
					cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
				}
				e, err := New(c.Index, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i, q := range queries[:n] {
					res, err := e.Search(q.Terms)
					if err != nil {
						t.Fatalf("%s q%d %v: %v", label, i, q.Terms, err)
					}
					rec := goldenRecord(res)
					rec.Terms = q.Terms
					compareGolden(t, label, i, rec, wantRows[i])
					if t.Failed() {
						t.Fatalf("%s: diverged from the pre-batching goldens", label)
					}
				}
				e.Close()
			}
		}
	}
}

// Concurrent queries through an enabled batcher coalesce for real —
// and still reproduce the golden result bits. Timings shift (that is
// the point), so only the result-shaped fields are compared.
func TestBatchingConcurrentResultsMatchGoldens(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 200, PopularityAlpha: 0.7, Seed: 7,
	})

	data, err := readGolden(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantRows := want.Modes[Hybrid.String()]

	e, err := New(c.Index, Config{
		Mode:        Hybrid,
		Device:      gpu.New(hwmodel.DefaultGPU(), 0),
		BatchWindow: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	terms := make([][]string, len(queries))
	for i, q := range queries {
		terms[i] = q.Terms
	}
	results := searchBatch(e, terms, 8)
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("q%d %v: %v", i, terms[i], br.Err)
		}
		rec := goldenRecord(br.Result)
		wantRow := wantRows[i]
		if rec.Candidates != wantRow.Candidates || rec.Migrated != wantRow.Migrated {
			t.Fatalf("q%d %v: candidates/migrated (%d,%v) != golden (%d,%v)",
				i, terms[i], rec.Candidates, rec.Migrated, wantRow.Candidates, wantRow.Migrated)
		}
		if len(rec.Docs) != len(wantRow.Docs) {
			t.Fatalf("q%d %v: %d docs != golden %d", i, terms[i], len(rec.Docs), len(wantRow.Docs))
		}
		for j := range wantRow.Docs {
			if rec.Docs[j] != wantRow.Docs[j] {
				t.Fatalf("q%d %v: doc[%d] %+v != golden %+v", i, terms[i], j, rec.Docs[j], wantRow.Docs[j])
			}
		}
	}
	// The run must have actually batched — otherwise this proves nothing.
	if st := e.BatchStats(); st.Members <= st.Batches {
		t.Fatalf("concurrent run never coalesced: %+v", st)
	}
}
