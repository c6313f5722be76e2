package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"griffin/internal/index"
	"griffin/internal/workload"
)

// fixtureSpec sizes the seeded inputs. The server never sees the seed:
// it receives the generated index file and HTTP requests only.
type fixtureSpec struct {
	NumDocs    int   `json:"num_docs"`
	NumTerms   int   `json:"num_terms"`
	MaxListLen int   `json:"max_list_len"`
	MinListLen int   `json:"min_list_len"`
	Queries    int   `json:"queries"`
	Seed       int64 `json:"seed"`
}

func defaultFixtureSpec(seed int64) fixtureSpec {
	return fixtureSpec{
		NumDocs: 4_000_000, NumTerms: 500, MaxListLen: 2_000_000, MinListLen: 1_000,
		Queries: 1_000, Seed: seed,
	}
}

// smokeFixtureSpec is the tiny fixture of the -smoke end-to-end test.
func smokeFixtureSpec(seed int64) fixtureSpec {
	return fixtureSpec{
		NumDocs: 60_000, NumTerms: 60, MaxListLen: 20_000, MinListLen: 200,
		Queries: 120, Seed: seed,
	}
}

// fixture is one seeded input set shared by every workload of a run.
type fixture struct {
	spec    fixtureSpec
	corpus  *workload.Corpus
	queries [][]string // distinct, in log order
	urls    []string   // queries[i] as a /search path+query

	indexPath string
	fileBytes int64
	buildS    float64 // GenerateCorpus wall time
	writeS    float64 // Index.WriteTo wall time
}

func buildFixture(spec fixtureSpec, dir string) (*fixture, error) {
	t0 := time.Now()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: spec.NumDocs, NumTerms: spec.NumTerms,
		MaxListLen: spec.MaxListLen, MinListLen: spec.MinListLen,
		Alpha: 0.85, Codec: index.CodecEF, Seed: spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	fx := &fixture{spec: spec, corpus: c, buildS: time.Since(t0).Seconds()}

	if fx.queries, err = queryLog(c, spec.Queries); err != nil {
		return nil, err
	}
	for _, q := range fx.queries {
		fx.urls = append(fx.urls, "/search?q="+url.QueryEscape(strings.Join(q, " ")))
	}

	t0 = time.Now()
	fx.indexPath = filepath.Join(dir, "index.grif")
	f, err := os.Create(fx.indexPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, err := c.Index.WriteTo(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write index: %w", err)
	}
	fx.fileBytes = n
	fx.writeS = time.Since(t0).Seconds()
	return fx, nil
}

// logSeed fixes the query log's shape. A query's cost follows from the
// lengths of its terms' lists, list lengths follow from term rank alone
// (workload.GenerateCorpus), and cost per query is heavy-tailed: 1 000 plain
// draws differ by ~20 % in total work from one log seed to the next, which
// would bury every bound in BENCHMARK.json. So the log's term-rank tuples are
// a constant of the benchmark, like its phase lengths, and -seed decides what
// those terms contain: every docID and frequency in the index, plus the
// arrival schedule and the mutation script. At the default -seed 1 this is
// exactly GenerateQueryLog{Seed: seed+1}.
const logSeed = 2

// queryLog returns the first n distinct queries of the Fig. 11 log.
func queryLog(c *workload.Corpus, n int) ([][]string, error) {
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: n * 2, PopularityAlpha: 0.45, Seed: logSeed,
	})
	seen := make(map[string]bool, n)
	var out [][]string
	for _, q := range log {
		key := strings.Join(q.Terms, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		if out = append(out, q.Terms); len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("query log: only %d distinct queries of %d", len(out), n)
}

// mutation is one scripted write. Each client owns a disjoint docID range
// at or above NumDocs, so the final state does not depend on how the
// clients' writes interleave.
type mutation struct {
	Op     string   `json:"op"`
	DocID  uint32   `json:"doc_id"`
	Tokens []string `json:"tokens,omitempty"`
}

// mutator generates one client's mutation stream: 70 % adds, 15 % updates,
// 15 % deletes, 4-8 tokens drawn from query terms. A mutation changes the
// client's live set only once the server acknowledged it (commit).
type mutator struct {
	fx    *fixture
	rng   *rand.Rand
	next  uint32
	live  []uint32
	acked []mutation
}

const clientDocSpan = 1 << 20 // docIDs reserved per client

func newMutator(fx *fixture, client int) *mutator {
	return &mutator{
		fx:   fx,
		rng:  rand.New(rand.NewSource(fx.spec.Seed*7919 + int64(client) + 101)),
		next: uint32(fx.spec.NumDocs + client*clientDocSpan),
	}
}

func (m *mutator) tokens() []string {
	n := 4 + m.rng.Intn(5)
	out := make([]string, 0, n+8)
	for len(out) < n {
		out = append(out, m.fx.queries[m.rng.Intn(len(m.fx.queries))]...)
	}
	return out[:n]
}

// generate returns the next mutation and the index into live it targets
// (-1 for adds).
func (m *mutator) generate() (mutation, int) {
	u := m.rng.Float64()
	if len(m.live) == 0 || u < 0.70 {
		return mutation{Op: "add", DocID: m.next, Tokens: m.tokens()}, -1
	}
	i := m.rng.Intn(len(m.live))
	if u < 0.85 {
		return mutation{Op: "update", DocID: m.live[i], Tokens: m.tokens()}, i
	}
	return mutation{Op: "delete", DocID: m.live[i]}, i
}

func (m *mutator) commit(mu mutation, target int) {
	switch mu.Op {
	case "add":
		m.live = append(m.live, mu.DocID)
		m.next++
	case "delete":
		m.live[target] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
	}
	m.acked = append(m.acked, mu)
}
