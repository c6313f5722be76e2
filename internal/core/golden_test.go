package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// The golden-equivalence corpus pins the engine's observable behaviour —
// top-k results (exact score bits), candidate counts, migration flags, and
// one row per intersection (placement, operand sizes, ratio, output size,
// time; a GPU row spans its whole step) — for a seeded corpus and query
// log across all four execution modes. The goldens were generated from
// the pre-plan-refactor engine (the four search* monoliths); the
// refactored plan-builder/executor pipeline must reproduce them bit for
// bit. The rows are derived from the query's plan alone (goldenOps), so
// the corpus also pins that the plan determines them.
//
// Regenerate (only when intentionally changing the modeled timeline) with:
//
//	go test ./internal/core -run TestGoldenEquivalence -update-goldens
//
// Regeneration is guarded: it refuses to overwrite the committed corpus
// when anything but the took_ns of a GPU-placed op differs from it, so a
// timing change cannot smuggle a change of results, plans or placements
// into the goldens. A deliberate semantic change means deleting the
// committed file first.

var updateGoldens = flag.Bool("update-goldens", false, "rewrite the golden-equivalence corpus from the current engine")

// The corpus is stored gzip-compressed (the JSON is ~650 KB of highly
// repetitive records; compressed it is a tenth of that in the repo).
const goldenPath = "testdata/golden_equivalence.json.gz"

// readGolden decompresses the stored corpus.
func readGolden(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// writeGolden compresses and writes the corpus (-update-goldens only).
// The gzip header carries no name or timestamp, so regeneration with
// unchanged content is byte-stable.
func writeGolden(path string, data []byte) error {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return err
	}
	if _, err := zw.Write(data); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

type goldenDoc struct {
	DocID     uint32 `json:"doc_id"`
	ScoreBits uint32 `json:"score_bits"`
}

type goldenOp struct {
	Stage    string  `json:"stage"`
	Where    string  `json:"where"`
	Ratio    float64 `json:"ratio"`
	ShortLen int     `json:"short_len"`
	LongLen  int     `json:"long_len"`
	OutLen   int     `json:"out_len"`
	TookNS   int64   `json:"took_ns"`
}

type goldenQuery struct {
	Terms      []string    `json:"terms"`
	K          int         `json:"k,omitempty"`
	Candidates int         `json:"candidates"`
	Migrated   bool        `json:"migrated"`
	Docs       []goldenDoc `json:"docs"`
	Ops        []goldenOp  `json:"ops"`
}

type goldenFile struct {
	Modes map[string][]goldenQuery `json:"modes"`
}

// goldenModes builds one engine per mode, each on a device of its own.
func goldenModes(t testing.TB, c *workload.Corpus) map[string]*Engine {
	t.Helper()
	out := make(map[string]*Engine)
	for _, m := range []Mode{CPUOnly, GPUOnly, Hybrid, PerQueryHybrid} {
		cfg := Config{Mode: m}
		if m != CPUOnly {
			cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
		}
		e, err := New(c.Index, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[m.String()] = e
	}
	return out
}

func goldenRecord(res *Result) goldenQuery {
	g := goldenQuery{
		Candidates: res.Stats.Candidates,
		Migrated:   res.Stats.Migrated,
	}
	for _, d := range res.Docs {
		g.Docs = append(g.Docs, goldenDoc{DocID: d.DocID, ScoreBits: math.Float32bits(d.Score)})
	}
	g.Ops = goldenOps(res.Stats.Plan)
	return g
}

// goldenOps reads the golden's rows off the plan alone, so the golden
// also pins that the plan determines them. A multi-term query has one
// row per intersection: the lists' lengths are the fetches' NOut in SvS
// order (ascending), and row i's long side is list i+1. A single-term
// query has one "single" row: its host decode, or its device drain (the
// migrate that brings the decompressed list home). A CPU row took its
// record's Took. A device record ends on the device clock at Start less
// the host time billed before it plus Took, and the host joins the device
// after every GPU intersect and every migrate. A GPU row took the clock's
// advance from the previous join to its end.
func goldenOps(plan []PlanRecord) []goldenOp { return mutatedGoldenOps(plan, intact) }

// goldenMutation names a deliberate defect of goldenOps. The edge golden
// must catch each one (TestGoldenEdgesCatchMutations).
type goldenMutation int

const (
	intact goldenMutation = iota
	// noDrainRow leaves out a single-term query's device drain row.
	noDrainRow
	// noMigrateJoin forgets that the host joins the device after a migrate.
	noMigrateJoin
)

func mutatedGoldenOps(plan []PlanRecord, m goldenMutation) []goldenOp {
	var lens []int
	for _, rec := range plan {
		if rec.Kind == exec.OpFetch {
			lens = append(lens, rec.NOut)
		}
	}
	slices.Sort(lens)
	single := len(lens) == 1
	var ops []goldenOp
	var host, joined time.Duration
	for _, rec := range plan {
		end := rec.Start - host + rec.Took
		if rec.Kind == exec.OpIntersect || single && rec.Kind == exec.OpMigrate && m != noDrainRow {
			stage, long := fmt.Sprintf("intersect#%d", len(ops)), lens[len(lens)-1]
			if single {
				stage = "single"
			} else {
				long = lens[len(ops)+1]
			}
			took := rec.Took
			if rec.Where == sched.GPU {
				took = end - joined
			}
			ops = append(ops, goldenOp{
				Stage:    stage,
				Where:    rec.Where.String(),
				Ratio:    sched.Ratio(rec.NIn, long),
				ShortLen: rec.NIn,
				LongLen:  long,
				OutLen:   rec.NOut,
				TookNS:   int64(took),
			})
		}
		switch {
		case rec.Where == sched.CPU:
			host += rec.Took
		case rec.Kind == exec.OpIntersect || rec.Kind == exec.OpMigrate && m != noMigrateJoin:
			joined = end
		}
	}
	return ops
}

func TestGoldenEquivalence(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 200, PopularityAlpha: 0.7, Seed: 7,
	})
	engines := goldenModes(t, c)

	got := goldenFile{Modes: make(map[string][]goldenQuery)}
	for name, e := range engines {
		rows := make([]goldenQuery, len(queries))
		for i, q := range queries {
			res, err := e.Search(q.Terms)
			if err != nil {
				t.Fatalf("%s query %d %v: %v", name, i, q.Terms, err)
			}
			// Sequential queries admit into an idle device runtime: the
			// shared-runtime path must charge zero queueing delay, or the
			// golden timings below could not match the private-stream era.
			if res.Stats.GPUWait != 0 {
				t.Fatalf("%s query %d %v: contention-free query charged %v queueing delay",
					name, i, q.Terms, res.Stats.GPUWait)
			}
			// Every buffer goes back to the device's pool at query end.
			if e.cfg.Device != nil && e.cfg.Device.Allocated() != 0 {
				t.Fatalf("%s query %d %v: %d device bytes still live after the query",
					name, i, q.Terms, e.cfg.Device.Allocated())
			}
			rec := goldenRecord(res)
			rec.Terms = q.Terms
			rows[i] = rec
		}
		got.Modes[name] = rows
	}

	checkGoldenFile(t, goldenPath, &got)
}

// checkGoldenFile holds got to the corpus at path, or rewrites the corpus
// under -update-goldens. Regeneration refuses any difference but the
// took_ns of GPU-placed ops.
func checkGoldenFile(t *testing.T, path string, got *goldenFile) {
	t.Helper()
	if *updateGoldens {
		if data, err := readGolden(path); err == nil {
			var committed goldenFile
			if err := json.Unmarshal(data, &committed); err != nil {
				t.Fatal(err)
			}
			if semantic, _ := diffGoldenFiles(got, &committed); len(semantic) > 0 {
				for _, m := range semantic {
					t.Error(m)
				}
				t.Fatalf("refusing to rewrite %s: %d fields other than the took_ns of GPU-placed ops differ from the committed corpus",
					path, len(semantic))
			}
		} else if !os.IsNotExist(err) {
			t.Fatalf("read committed goldens: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := writeGolden(path, data); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d modes)", path, len(got.Modes))
		return
	}

	data, err := readGolden(path)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-goldens): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	semantic, timing := diffGoldenFiles(got, &want)
	for _, m := range semantic {
		t.Errorf("semantic: %s", m)
	}
	for _, m := range timing {
		t.Errorf("timing: %s", m)
	}
	if len(semantic)+len(timing) > 0 {
		t.Errorf("%d semantic mismatches (results, plans or placements moved), %d timing-only mismatches (took_ns of GPU-placed ops)",
			len(semantic), len(timing))
	}
}

// diffGoldenFiles compares a run against a golden corpus mode by mode.
func diffGoldenFiles(got, want *goldenFile) (semantic, timing []string) {
	for _, name := range sortedModes(want) {
		wantRows, gotRows := want.Modes[name], got.Modes[name]
		if len(gotRows) != len(wantRows) {
			semantic = append(semantic, fmt.Sprintf("%s: %d queries, golden has %d", name, len(gotRows), len(wantRows)))
			continue
		}
		for i := range wantRows {
			s, tm := diffGolden(name, i, gotRows[i], wantRows[i])
			semantic, timing = append(semantic, s...), append(timing, tm...)
		}
	}
	return semantic, timing
}

func sortedModes(f *goldenFile) []string {
	names := make([]string, 0, len(f.Modes))
	for name := range f.Modes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// diffGolden compares one query's record with its golden. A mismatch is
// timing-only when it is the took_ns of a GPU-placed op; everything else —
// results, candidate counts, the migration flag, an op's placement or
// operand sizes, and the took_ns of a CPU-placed op, which no device
// change can move — is semantic.
func diffGolden(mode string, qi int, got, want goldenQuery) (semantic, timing []string) {
	at := fmt.Sprintf("%s q%d %v", mode, qi, want.Terms)
	if !reflect.DeepEqual(got.Terms, want.Terms) || got.K != want.K {
		semantic = append(semantic, fmt.Sprintf("%s: terms %v k %d", at, got.Terms, got.K))
	}
	if got.Candidates != want.Candidates {
		semantic = append(semantic, fmt.Sprintf("%s: candidates %d != golden %d", at, got.Candidates, want.Candidates))
	}
	if got.Migrated != want.Migrated {
		semantic = append(semantic, fmt.Sprintf("%s: migrated %v != golden %v", at, got.Migrated, want.Migrated))
	}
	if !reflect.DeepEqual(got.Docs, want.Docs) {
		semantic = append(semantic, fmt.Sprintf("%s: docs %+v != golden %+v", at, got.Docs, want.Docs))
	}
	if len(got.Ops) != len(want.Ops) {
		return append(semantic, fmt.Sprintf("%s: %d ops != golden %d", at, len(got.Ops), len(want.Ops))), timing
	}
	for j, w := range want.Ops {
		g := got.Ops[j]
		took := g.TookNS
		g.TookNS = w.TookNS
		switch {
		case g != w:
			semantic = append(semantic, fmt.Sprintf("%s: op[%d]\n got    %+v\n golden %+v", at, j, got.Ops[j], w))
		case took != w.TookNS && w.Where != sched.GPU.String():
			semantic = append(semantic, fmt.Sprintf("%s: op[%d] on the %s took %d ns != golden %d", at, j, w.Where, took, w.TookNS))
		case took != w.TookNS:
			timing = append(timing, fmt.Sprintf("%s: op[%d] took %d ns != golden %d", at, j, took, w.TookNS))
		}
	}
	return semantic, timing
}

// compareGolden reports every mismatch between one query's record and its
// golden, semantic and timing alike.
func compareGolden(t *testing.T, mode string, qi int, got, want goldenQuery) {
	t.Helper()
	semantic, timing := diffGolden(mode, qi, got, want)
	for _, m := range semantic {
		t.Errorf("semantic: %s", m)
	}
	for _, m := range timing {
		t.Errorf("timing: %s", m)
	}
}
