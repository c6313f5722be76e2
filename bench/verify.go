package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
)

const topK = 10 // the server's default result count; requests never override it

// searchReply is the part of a /search body the benchmark reads.
type searchReply struct {
	LatencyMS float64 `json:"simulated_latency_ms"`
	Migrated  bool    `json:"migrated"`
	Degraded  bool    `json:"degraded"`
	Results   []struct {
		DocID uint32  `json:"doc_id"`
		Score float32 `json:"score"`
	} `json:"results"`
}

func parseReply(body []byte) (*searchReply, error) {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("bad /search body: %w", err)
	}
	return &r, nil
}

func (r *searchReply) docs() []kernels.ScoredDoc {
	out := make([]kernels.ScoredDoc, len(r.Results))
	for i, h := range r.Results {
		out[i] = kernels.ScoredDoc{DocID: h.DocID, Score: h.Score}
	}
	return out
}

// intersectSorted is the reference conjunction: a plain two-pointer merge
// of ascending docID slices, sharing no code with internal/intersect or
// the device kernels it checks.
func intersectSorted(a, b []uint32) []uint32 {
	out := []uint32{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// reference computes expected top-k lists for queries over a frozen index:
// decoded lists, intersectSorted, then rank.Scorer and rank.TopKCPU with
// the lists in query-term order (the order the engine accumulates scores
// in, so float32 scores agree bit for bit).
type reference struct {
	ix      *index.Index
	scorer  *rank.Scorer
	decoded map[string][]uint32            // term -> docIDs
	answers map[string][]kernels.ScoredDoc // query -> top-k, kept across workloads
}

func newReference(ix *index.Index) *reference {
	return &reference{
		ix: ix, scorer: rank.NewScorer(ix, rank.DefaultBM25()),
		decoded: map[string][]uint32{}, answers: map[string][]kernels.ScoredDoc{},
	}
}

func (r *reference) list(pl *index.PostingList) []uint32 {
	ids, ok := r.decoded[pl.Term]
	if !ok {
		ids = pl.EF.Decompress()
		r.decoded[pl.Term] = ids
	}
	return ids
}

func (r *reference) topK(terms []string) []kernels.ScoredDoc {
	key := strings.Join(terms, " ")
	top, ok := r.answers[key]
	if !ok {
		top = r.compute(terms)
		r.answers[key] = top
	}
	return top
}

// forEach calls fn(0..n-1) from the given number of goroutines and returns
// when all calls have.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// prepare computes the answers of queries ahead of their check, on workers
// goroutines: the check runs after the timed phases, when the cores are
// idle, and the log's heaviest queries score half a million candidates each.
func (r *reference) prepare(queries [][]string, workers int) {
	var todo [][]string
	for _, q := range queries {
		if _, ok := r.answers[strings.Join(q, " ")]; ok {
			continue
		}
		todo = append(todo, q)
		// Decode here, on one goroutine: compute then only reads r.decoded.
		for _, t := range q {
			if pl, ok := r.ix.Lookup(t); ok {
				r.list(pl)
			}
		}
	}
	tops := make([][]kernels.ScoredDoc, len(todo))
	forEach(len(todo), workers, func(i int) { tops[i] = r.compute(todo[i]) })
	for i, q := range todo {
		r.answers[strings.Join(q, " ")] = tops[i]
	}
}

func (r *reference) compute(terms []string) []kernels.ScoredDoc {
	lists := make([]*index.PostingList, 0, len(terms))
	for _, t := range terms {
		pl, ok := r.ix.Lookup(t)
		if !ok {
			return nil
		}
		lists = append(lists, pl)
	}
	if len(lists) == 0 {
		return nil
	}
	// Start from the shortest list so the running intersection stays small.
	short := 0
	for i, pl := range lists {
		if pl.N < lists[short].N {
			short = i
		}
	}
	cands := r.list(lists[short])
	for i, pl := range lists {
		if i != short {
			cands = intersectSorted(cands, r.list(pl))
		}
	}
	if len(cands) == 0 {
		return nil
	}
	scored, _ := r.scorer.ScoreCandidates(lists, cands)
	top, _ := rank.TopKCPU(scored, topK)
	return top
}

func sameDocs(got, want []kernels.ScoredDoc) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// wellFormed is the check for reads that raced with writes, where no fixed
// reference exists: at most k hits in rank.Beats order.
func wellFormed(docs []kernels.ScoredDoc) bool {
	if len(docs) > topK {
		return false
	}
	for i := 1; i < len(docs); i++ {
		if !rank.Beats(docs[i-1], docs[i]) {
			return false
		}
	}
	return true
}

// checker counts attempted and failed operations over all phases of one
// workload run and remembers the first few reasons.
type checker struct {
	fx        *fixture
	ref       *reference
	attempted int
	failed    int
	reasons   []string
	// exact marks the log queries whose answer was compared with the
	// reference at least once.
	exact map[int]bool
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 5 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// checkReads verifies every read of a phase: transport error or non-200
// fails; otherwise the hit list must equal the reference (exact) or be
// well-formed (when writes may have changed the answer). It returns the
// parsed replies of the successful reads, in op order.
func (c *checker) checkReads(phase string, ops []opResult, exact bool) []*searchReply {
	var replies []*searchReply
	for i := range ops {
		op := &ops[i]
		if op.write() {
			continue
		}
		c.attempted++
		if !op.ok() {
			c.fail("%s: query %d: status %d err %v", phase, op.query, op.status, op.err)
			continue
		}
		rep, err := parseReply(op.body)
		if err != nil {
			c.fail("%s: query %d: %v", phase, op.query, err)
			continue
		}
		docs := rep.docs()
		switch {
		case rep.Degraded:
			c.fail("%s: query %d: degraded result", phase, op.query)
		case exact:
			c.exact[op.query] = true
			terms := c.fx.queries[op.query]
			if w := c.ref.topK(terms); !sameDocs(docs, w) {
				c.fail("%s: query %d %v: got %v want %v", phase, op.query, terms, docs, w)
			}
		case !wellFormed(docs):
			c.fail("%s: query %d: malformed result %v", phase, op.query, docs)
		}
		replies = append(replies, rep)
	}
	return replies
}

// checkWrites counts the writes of a phase and returns how many were
// acknowledged.
func (c *checker) checkWrites(phase string, ops []opResult) int {
	acked := 0
	for i := range ops {
		op := &ops[i]
		if !op.write() {
			continue
		}
		c.attempted++
		if op.ok() {
			acked++
		} else {
			c.fail("%s: write: status %d err %v body %.80s", phase, op.status, op.err, op.body)
		}
	}
	return acked
}
