package workload_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/server"
	"griffin/internal/workload"
)

// TestServerAnswersBeforeTheSplitEnds serves a cluster over shards whose
// split is held at the middle term of the dictionary, beside a cluster
// over a finished split, and sends both the same requests. While the
// split is held, /healthz answers 200 with the finished cluster's body,
// its term count exact, a /search on terms split before the held one
// answers with the finished cluster's body, and a /search on the held
// term does not answer. Once the split is released, that search answers
// too, and every /search body is byte-identical to the finished
// cluster's.
func TestServerAnswersBeforeTheSplitEnds(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: 50_000, NumTerms: 60, MaxListLen: 20_000, MinListLen: 200, Alpha: 0.9, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	serve := func(p *workload.Partition) http.Handler {
		cl, err := cluster.New(p.Shards(), cluster.Config{
			Engine: core.Config{Mode: core.Hybrid, CacheLists: true}, TopK: 10, Replicas: 2, Routing: cluster.LeastPending,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return server.NewCluster(cl)
	}
	finished, err := workload.StartPartition(c.Index, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := finished.Wait(); err != nil {
		t.Fatal(err)
	}
	waited := serve(finished)

	terms := c.Index.Terms()
	held := len(terms) / 2
	release := make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unhold)
	p, err := workload.StartPartitionHeld(c.Index, shards, func(t int) {
		if t == held {
			<-release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	early := serve(p)

	get := func(h http.Handler, url string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	type reply struct {
		code int
		body string
	}
	ask := func(url string) <-chan reply {
		got := make(chan reply, 1)
		go func() {
			code, body := get(early, url)
			got <- reply{code, body}
		}()
		return got
	}
	// answered fails unless the early server answers url within 10 s
	// with the finished server's reply to the same request.
	answered := func(url string, got <-chan reply) {
		t.Helper()
		select {
		case r := <-got:
			wcode, wbody := get(waited, url)
			if r.code != http.StatusOK || r.code != wcode || r.body != wbody {
				t.Errorf("GET %s: %d %s\nwant %d %s", url, r.code, r.body, wcode, wbody)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GET %s: no answer within 10 s", url)
		}
	}
	same := func(url string) {
		t.Helper()
		answered(url, ask(url))
	}

	same("/healthz")
	same("/search?q=" + terms[0] + "+" + terms[1])
	same("/search?q=" + terms[held-1])
	heldURL := "/search?q=" + terms[held]
	heldReply := ask(heldURL)
	select {
	case r := <-heldReply:
		t.Fatalf("GET %s answered %d %s while its term was held", heldURL, r.code, r.body)
	case <-time.After(50 * time.Millisecond):
	}
	unhold()
	answered(heldURL, heldReply)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 40, PopularityAlpha: 0.5, Seed: 22}) {
		same("/search?q=" + strings.Join(q.Terms, "+"))
	}
	same("/healthz")
}
