package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/wal"
)

// ---------------------------------------------------------------------------
// The oracle: the one reference every live-ingestion test answers to. It is
// a map from docID to token stream holding exactly the acknowledged
// documents, and it computes what a query must return from the definition
// of BM25 — none of index, exec or rank is on its path. Building an index
// from it (index.Builder.AddDocument in ascending docID order) is what a
// from-scratch ingestion would do.
// ---------------------------------------------------------------------------

type oracle struct {
	docs map[uint32][]string
}

func newOracle() *oracle {
	return &oracle{docs: make(map[uint32][]string)}
}

func (o *oracle) clone() *oracle {
	out := newOracle()
	for id, toks := range o.docs {
		out.docs[id] = toks
	}
	return out
}

// apply records one acknowledged mutation.
func (o *oracle) apply(m mutation) {
	if m.kind == wal.OpDelete {
		delete(o.docs, m.docID)
	} else {
		o.docs[m.docID] = m.tokens
	}
}

func (o *oracle) ids() []uint32 {
	ids := make([]uint32, 0, len(o.docs))
	for id := range o.docs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (o *oracle) build(t testing.TB) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	for _, id := range o.ids() {
		if err := b.AddDocument(id, o.docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// stats are the collection statistics a query is scored with: the
// collection size is the top live docID + 1, and the token count is an
// exact integer sum.
func (o *oracle) stats() corpusStats {
	var s corpusStats
	for id, toks := range o.docs {
		s.numDocs = max(s.numDocs, int(id)+1)
		s.lenSum += uint64(len(toks))
		s.lenCnt++
	}
	return s
}

// BM25's free parameters, as the engine is configured.
const bm25K1, bm25B = 1.2, 0.75

// searchAll answers each conjunctive query in one pass over the
// documents: those holding every term, each scored with BM25 — per term
// idf(df)·tf(k1+1)/(tf + k1(1−b+b·len/avg)), summed in float64 in query
// order and cast to float32 once — ranked by score, ties to the lower
// docID, cut to k; and the size of each conjunction, its candidate count.
func (o *oracle) searchAll(queries [][]string, k int) (tops [][]docBits, cands []int) {
	col := map[string]int{} // a query term's column in tf and df
	for _, q := range queries {
		for _, term := range q {
			if _, ok := col[term]; !ok {
				col[term] = len(col)
			}
		}
	}
	type doc struct {
		id  uint32
		len int
		tf  []uint32 // by column
	}
	var docs []doc // those holding any query term
	df := make([]int, len(col))
	for id, toks := range o.docs {
		var tf []uint32
		for _, tok := range toks {
			if c, ok := col[tok]; ok {
				if tf == nil {
					tf = make([]uint32, len(col))
				}
				if tf[c] == 0 {
					df[c]++
				}
				tf[c]++
			}
		}
		if tf != nil {
			docs = append(docs, doc{id, len(toks), tf})
		}
	}
	st := o.stats()
	n, avg := float64(st.numDocs), 1.0
	if st.lenCnt > 0 {
		avg = float64(st.lenSum) / float64(st.lenCnt)
	}
	idf := make([]float64, len(col))
	for c, d := range df {
		idf[c] = max(math.Log((n-float64(d)+0.5)/(float64(d)+0.5)+1), 1e-6)
	}
	for _, q := range queries {
		var out []kernels.ScoredDoc
	docs:
		for _, d := range docs {
			var score float64
			for _, term := range q {
				c := col[term]
				if d.tf[c] == 0 {
					continue docs
				}
				f := float64(d.tf[c])
				score += idf[c] * (f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*float64(d.len)/avg)))
			}
			out = append(out, kernels.ScoredDoc{DocID: d.id, Score: float32(score)})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return out[i].DocID < out[j].DocID
		})
		tops, cands = append(tops, bitsOf(out[:min(k, len(out))])), append(cands, len(out))
	}
	return tops, cands
}

// checkOracle asserts a live cluster answers every query as the oracle
// does: the same documents with bit-identical scores, and its shards'
// candidates adding up to the conjunction.
func checkOracle(t *testing.T, e *Cluster, o *oracle, queries [][]string, tag string) {
	t.Helper()
	tops, cands := o.searchAll(queries, 10)
	for qi, q := range queries {
		r, err := e.Search(q)
		if err != nil {
			t.Fatalf("%s q%d: %v", tag, qi, err)
		}
		if err := agrees(r, tops[qi], cands[qi]); err != nil {
			t.Errorf("%s q%d %v: %v", tag, qi, q, err)
		}
	}
}

// agrees compares one live answer with the oracle's.
func agrees(r *ClusterResult, want []docBits, cands int) error {
	got := 0
	for _, sh := range r.Stats.Shards {
		got += sh.Query.Candidates
	}
	if got != cands {
		return fmt.Errorf("candidates %d, the oracle counts %d", got, cands)
	}
	if lb := bitsOf(r.Docs); !sameDocs(lb, want) {
		return fmt.Errorf("docs diverge\n  live=%v\noracle=%v", lb, want)
	}
	return nil
}

// byGen is the oracle's top 10 for each query after each prefix of
// script: [g][q] after the first g mutations.
func byGen(base *oracle, script []mutation, queries [][]string) [][][]docBits {
	o := base.clone()
	out := make([][][]docBits, len(script)+1)
	for g := range out {
		if g > 0 {
			o.apply(script[g-1])
		}
		out[g], _ = o.searchAll(queries, 10)
	}
	return out
}

// soak runs write with readers beside it until write returns: each
// reader repeats the queries, holding every answer to the oracle's at the
// generation it reports (expected, from byGen), and that generation to
// never go backwards.
func soak(t *testing.T, e *Cluster, readers int, queries [][]string, expected [][][]docBits, write func() error) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for range readers {
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for qi, q := range queries {
					r, err := e.Search(q)
					switch {
					case err != nil:
						t.Errorf("reader q%d: %v", qi, err)
					case r.Gen < last || r.Gen >= uint64(len(expected)):
						t.Errorf("reader q%d: gen %d after %d, of %d", qi, r.Gen, last, len(expected)-1)
					case !sameDocs(bitsOf(r.Docs), expected[r.Gen][qi]):
						t.Errorf("reader q%d gen %d: torn result\n got=%v\nwant=%v", qi, r.Gen, bitsOf(r.Docs), expected[r.Gen][qi])
					default:
						last = r.Gen
						continue
					}
					return
				}
			}
		}()
	}
	err := write()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Seeded corpora and mutations.
// ---------------------------------------------------------------------------

func word(i int) string { return fmt.Sprintf("w%02d", i) }

// genDoc draws a document whose term distribution is skewed toward the
// low-numbered vocabulary words (so conjunctions actually match).
func genDoc(r *rand.Rand, vocab int) []string {
	n := 4 + r.Intn(20)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = word(int(float64(vocab) * r.Float64() * r.Float64()))
	}
	return toks
}

func seedCorpus(seed int64, docs, vocab int) *oracle {
	r := rand.New(rand.NewSource(seed))
	o := newOracle()
	for id := 0; id < docs; id++ {
		o.docs[uint32(id)] = genDoc(r, vocab)
	}
	return o
}

// mutation is one Add/Update/Delete, applied identically to the live
// cluster and the oracle.
type mutation struct {
	kind   wal.Op
	docID  uint32
	tokens []string
}

// generator draws mutations over a corpus: adds of brand-new docIDs,
// whole-document updates and deletes of live ones. It learns of a
// mutation only when told it was acknowledged (commit), so a refused
// draw leaves the next one valid.
type generator struct {
	r     *rand.Rand
	vocab int
	live  []uint32 // in the order they became live
	next  uint32
}

func newGenerator(seed int64, o *oracle, vocab int) *generator {
	g := &generator{r: rand.New(rand.NewSource(seed)), vocab: vocab}
	g.rebase(o)
	return g
}

// rebase makes o's documents the live ones, in docID order.
func (g *generator) rebase(o *oracle) {
	g.live, g.next = o.ids(), 0
	if n := len(g.live); n > 0 {
		g.next = g.live[n-1] + 1
	}
}

// draw returns a mutation of op (0 = drawn: 40 % add, 30 % update, 30 %
// delete), or false when there is no live document to update or delete.
func (g *generator) draw(op wal.Op) (mutation, bool) {
	if op == 0 {
		switch k := g.r.Intn(10); {
		case k < 4:
			op = wal.OpAdd
		case k < 7:
			op = wal.OpUpdate
		default:
			op = wal.OpDelete
		}
	}
	if op == wal.OpAdd {
		return mutation{kind: op, docID: g.next, tokens: genDoc(g.r, g.vocab)}, true
	}
	if len(g.live) == 0 {
		return mutation{}, false
	}
	id := g.live[g.r.Intn(len(g.live))]
	if op == wal.OpDelete {
		return mutation{kind: op, docID: id}, true
	}
	return mutation{kind: op, docID: id, tokens: genDoc(g.r, g.vocab)}, true
}

// drawTop leans on what running statistics get wrong: one add in three
// leaves a gap of up to three length-table pages below it, and half the
// deletes and a third of the updates hit the top document.
func (g *generator) drawTop(o *oracle) mutation {
	live := o.ids()
	top := uint32(0)
	if len(live) > 0 {
		top = live[len(live)-1]
	}
	m := mutation{kind: wal.OpAdd, docID: top + 1}
	switch k := g.r.Intn(10); {
	case len(live) == 0 || (k < 4 && len(live) < 120):
		if g.r.Intn(3) == 0 {
			m.docID += uint32(g.r.Intn(3 << index.DocLenShift))
		}
	case k < 7:
		m.kind, m.docID = wal.OpUpdate, live[g.r.Intn(len(live))]
		if g.r.Intn(3) == 0 {
			m.docID = top
		}
	default:
		m.kind, m.docID = wal.OpDelete, live[g.r.Intn(len(live))]
		if g.r.Intn(2) == 0 {
			m.docID = top
		}
	}
	if m.kind != wal.OpDelete {
		m.tokens = genDoc(g.r, g.vocab)
	}
	return m
}

// commit records an acknowledged mutation.
func (g *generator) commit(m mutation) {
	i := slices.Index(g.live, m.docID)
	switch {
	case m.kind == wal.OpDelete && i >= 0:
		g.live = slices.Delete(g.live, i, i+1)
	case m.kind != wal.OpDelete && i < 0:
		g.live = append(g.live, m.docID)
		g.next = max(g.next, m.docID+1)
	}
}

// genScript is n drawn mutations over c, each assumed acknowledged.
func genScript(seed int64, c *oracle, n, vocab int) []mutation {
	g := newGenerator(seed, c, vocab)
	var out []mutation
	for i := 0; i < n; i++ {
		if m, ok := g.draw(0); ok {
			g.commit(m)
			out = append(out, m)
		}
	}
	return out
}

// apply replays one mutation into both the live cluster and the oracle,
// keeping them in lockstep.
func apply(t testing.TB, e *Cluster, o *oracle, m mutation) {
	t.Helper()
	if err := e.Apply(m.kind, m.docID, m.tokens); err != nil {
		t.Fatalf("mutation %+v: %v", m, err)
	}
	o.apply(m)
}

// queryLog is a fixed conjunctive query mix: popular pairs, selective
// triples, and one term that only ever exists in the delta.
func queryLog(vocab int) [][]string {
	return [][]string{
		{word(0)},
		{word(0), word(1)},
		{word(1), word(2)},
		{word(0), word(2), word(3)},
		{word(3), word(5)},
		{word(vocab / 2), word(1)},
		{word(vocab - 1), word(0)},
		{"fresh-term", word(0)},
		{"no-such-term"},
	}
}

type docBits struct {
	DocID uint32
	Bits  uint32
}

// bitsOf reads ranked docs with their scores' bits.
func bitsOf(docs []kernels.ScoredDoc) []docBits {
	out := make([]docBits, len(docs))
	for i, d := range docs {
		out[i] = docBits{DocID: d.DocID, Bits: math.Float32bits(d.Score)}
	}
	return out
}

func sameDocs(a, b []docBits) bool { return slices.Equal(a, b) }
