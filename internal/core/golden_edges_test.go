package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// The edge golden pins the plan shapes the main golden's log never
// reaches: single-term queries (the host decode and the device drain),
// absent terms, an intersection that empties before the last list, k
// above the candidate count, and device steps that follow a migration
// back to the host. Its policy alternates GPU and CPU, so every shape
// appears on both processors. It runs on one device, and on two devices
// with the list cache and batching.
//
// Regenerate with the main golden's flag:
//
//	go test ./internal/core -run TestGoldenEdges -update-goldens
const edgeGoldenPath = "testdata/golden_edges.json.gz"

// flipPolicy alternates GPU and CPU within a query, so a step after a
// migration returns to the device, and starts each query on the other
// processor from the query before it, so single-term queries take both
// the device drain and the host decode.
type flipPolicy struct {
	queries *int // queries begun on this engine
	next    sched.Processor
}

func (p *flipPolicy) Decide(short, long int) sched.Decision {
	d := sched.Decision{Where: p.next, Ratio: sched.Ratio(short, long)}
	p.next = sched.GPU
	if d.Where == sched.GPU {
		p.next = sched.CPU
	}
	return d
}

func (p *flipPolicy) Fresh() sched.Policy {
	*p.queries++
	next := sched.GPU
	if *p.queries%2 == 0 {
		next = sched.CPU
	}
	return &flipPolicy{queries: p.queries, next: next}
}

type edgeQuery struct {
	terms []string
	k     int // 0: the engine's 10
}

// edgeLog is the edge golden's query log over testCorpus, whose term
// t%06d is the list of that popularity rank (t000000 is the longest).
func edgeLog() []edgeQuery {
	tn := workload.TermName
	var log []edgeQuery
	add := func(k int, ranks ...int) {
		q := edgeQuery{k: k}
		for _, r := range ranks {
			q.terms = append(q.terms, tn(r))
		}
		log = append(log, q)
	}
	// Single terms, each twice in a row so it starts once on each side.
	for _, r := range []int{0, 7, 33, 59} {
		add(0, r)
		add(0, r)
	}
	add(1000, 45) // k = 1000 below the list's 1 739 postings
	// Absent terms: alone, beside a known term, and before two.
	log = append(log,
		edgeQuery{terms: []string{"no-such-term"}},
		edgeQuery{terms: []string{tn(3), "no-such-term"}},
		edgeQuery{terms: []string{"no-such-term", tn(10), tn(20)}},
		edgeQuery{terms: []string{"missing-a", "missing-b"}},
	)
	// The intermediate empties before the long lists: 7 documents in
	// common between the two shortest lists, none with the third.
	add(0, 59, 58, 1, 0)
	add(0, 58, 59, 2, 1, 0)
	// k above the candidate count.
	add(1000, 30, 31)
	add(1000, 40, 45, 50)
	add(1, 5, 6)
	// Four to six terms: with the alternating policy a device step follows
	// a migration back to the host, starting on either side.
	for i := 0; i < 2; i++ {
		add(0, 0, 1, 2, 3)
		add(0, 4, 1, 0, 2, 3)
		add(0, 0, 1, 2, 3, 4, 5)
		add(0, 12, 0, 1, 2, 3)
	}
	return log
}

// edgeRuns answers the edge log on each configuration and returns the
// results by configuration name.
func edgeRuns(t *testing.T) map[string][]*Result {
	t.Helper()
	c := testCorpus(t)
	log := edgeLog()
	out := make(map[string][]*Result)
	for _, cf := range []struct {
		name string
		cfg  Config
	}{
		{"flip/devices=1", Config{}},
		{"flip/devices=2/cache/batching", Config{Devices: 2, CacheLists: true, BatchWindow: 200 * time.Microsecond}},
	} {
		cfg := cf.cfg
		cfg.Mode = Hybrid
		cfg.Policy = &flipPolicy{queries: new(int)}
		cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
		e, err := New(c.Index, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range log {
			res, err := e.Query(context.Background(), Request{Terms: q.terms, SearchOptions: SearchOptions{TopK: q.k}})
			if err != nil {
				t.Fatalf("%s query %d %v: %v", cf.name, i, q.terms, err)
			}
			out[cf.name] = append(out[cf.name], res)
		}
		e.Close()
	}
	return out
}

// edgeFile builds the edge golden from the runs with goldenOps mutated by m.
func edgeFile(runs map[string][]*Result, m goldenMutation) *goldenFile {
	log := edgeLog()
	f := &goldenFile{Modes: make(map[string][]goldenQuery)}
	for name, results := range runs {
		for i, res := range results {
			g := goldenRecord(res)
			g.Ops = mutatedGoldenOps(res.Stats.Plan, m)
			g.Terms = log[i].terms
			g.K = log[i].k
			f.Modes[name] = append(f.Modes[name], g)
		}
	}
	return f
}

func TestGoldenEdges(t *testing.T) {
	runs := edgeRuns(t)
	log := edgeLog()
	// The log reaches every shape it is there for, in every configuration.
	for name, results := range runs {
		var drains, decodes, absent, early, short, afterMigrate int
		for i, res := range results {
			q := log[i]
			var fetches, intersects int
			migrated := false
			for _, rec := range res.Stats.Plan {
				switch {
				case rec.Kind == exec.OpFetch:
					fetches++
					if rec.NOut == 0 {
						absent++
					}
				case rec.Kind == exec.OpMigrate:
					migrated = true
				case rec.Kind == exec.OpIntersect && rec.Algo == exec.AlgoCPUDecode:
					decodes++
				case rec.Kind == exec.OpIntersect:
					intersects++
					if rec.Where == sched.GPU && migrated {
						afterMigrate++
					}
				}
				if rec.Kind == exec.OpMigrate && len(q.terms) == 1 {
					drains++
				}
			}
			if intersects > 0 && intersects < fetches-1 && len(res.Docs) == 0 {
				early++
			}
			if q.k > 0 && res.Stats.Candidates > 0 && res.Stats.Candidates < q.k {
				short++
			}
		}
		for what, n := range map[string]int{
			"single-term device drains": drains, "single-term host decodes": decodes,
			"absent terms": absent, "early-emptying intersections": early,
			"queries with k above their candidates": short, "device steps after a migration": afterMigrate,
		} {
			if n == 0 {
				t.Errorf("%s: the edge log reached no %s", name, what)
			}
		}
	}
	checkGoldenFile(t, edgeGoldenPath, edgeFile(runs, intact))
}

// TestGoldenEdgesCatchMutations holds the edge golden to catching each
// goldenMutation: a goldenOps that drops the single-term drain row, or that
// forgets the host's join after a migrate, must not match it.
func TestGoldenEdgesCatchMutations(t *testing.T) {
	data, err := readGolden(edgeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	runs := edgeRuns(t)
	for name, m := range map[string]goldenMutation{"noDrainRow": noDrainRow, "noMigrateJoin": noMigrateJoin} {
		semantic, timing := diffGoldenFiles(edgeFile(runs, m), &want)
		if len(semantic)+len(timing) == 0 {
			t.Errorf("goldenOps with mutation %s still matches %s", name, edgeGoldenPath)
		}
		t.Logf("%s: %d semantic and %d timing mismatches", name, len(semantic), len(timing))
	}
}
