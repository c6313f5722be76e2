package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/overload"
	"griffin/internal/workload"
)

// newOverloadClusterServer builds a cluster server with the given
// overload config (zero = controls off).
func newOverloadClusterServer(t *testing.T, olc overload.Config) *Server {
	t.Helper()
	ixs, err := workload.PartitionIndex(testIndex(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ixs, cluster.Config{
		Engine:   core.Config{Mode: core.CPUOnly},
		TopK:     10,
		Overload: olc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return NewCluster(cl)
}

// TestOverloadDisabledBytesParity pins the inertness guarantee at the
// HTTP surface: a server with no overload control configured emits
// byte-identical /search, /statz, and /healthz bodies to one whose code
// never heard of overload — no overload block, no shed_rate, no
// per-query deadline fields.
func TestOverloadDisabledBytesParity(t *testing.T) {
	srv := newOverloadClusterServer(t, overload.Config{})
	rec, body := get(t, srv, "/search?q=quick+fox&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, body)
	}
	for _, banned := range []string{"deadline", "class", "brownout", "forced_cpu", "shed", "hedge_skip", "budget"} {
		if bytes.Contains(body, []byte(banned)) {
			t.Fatalf("disabled overload leaked %q into /search body:\n%s", banned, body)
		}
	}
	_, body = get(t, srv, "/statz")
	if bytes.Contains(body, []byte(`"overload"`)) {
		t.Fatalf("disabled overload leaked block into /statz:\n%s", body)
	}
	_, body = get(t, srv, "/healthz")
	if bytes.Contains(body, []byte("shed_rate")) || bytes.Contains(body, []byte("brownout")) {
		t.Fatalf("disabled overload leaked into /healthz:\n%s", body)
	}
}

// TestSearchDeadlineParam drives ?deadline_ms= end to end: an ample
// deadline is recorded in the response, an infeasible one is refused
// with 503, and malformed values are 400s.
func TestSearchDeadlineParam(t *testing.T) {
	srv := newOverloadClusterServer(t, overload.Config{})

	rec, body := get(t, srv, "/search?q=quick+fox&deadline_ms=1000")
	if rec.Code != http.StatusOK {
		t.Fatalf("ample deadline: %d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DeadlineMS != 1000 {
		t.Fatalf("deadline_ms = %v, want 1000", resp.DeadlineMS)
	}
	if len(resp.Results) == 0 {
		t.Fatal("ample deadline returned no results")
	}

	// Below the merge reserve: refused before any shard work.
	rec, body = get(t, srv, "/search?q=quick+fox&deadline_ms=0.000001")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infeasible deadline: %d %s", rec.Code, body)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("infeasible deadline body %q", body)
	}

	for _, bad := range []string{"-5", "0", "nan", "abc"} {
		rec, _ = get(t, srv, "/search?q=quick+fox&deadline_ms="+bad)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s: code %d, want 400", bad, rec.Code)
		}
	}
}

// TestSearchClassParam validates ?class= parsing and the batch marker
// in the response.
func TestSearchClassParam(t *testing.T) {
	srv := newOverloadClusterServer(t, overload.Config{})

	rec, body := get(t, srv, "/search?q=quick+fox&class=batch")
	if rec.Code != http.StatusOK {
		t.Fatalf("batch class: %d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Class != "batch" {
		t.Fatalf("class = %q, want batch", resp.Class)
	}

	rec, body = get(t, srv, "/search?q=quick+fox&class=interactive")
	if rec.Code != http.StatusOK {
		t.Fatalf("interactive class: %d %s", rec.Code, body)
	}
	if bytes.Contains(body, []byte(`"class"`)) {
		t.Fatalf("interactive class marked in body:\n%s", body)
	}

	rec, _ = get(t, srv, "/search?q=quick+fox&class=bulk")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad class: code %d, want 400", rec.Code)
	}
}

// TestOverloadParamsRequireCluster: the per-query parameters need a
// cluster's deadline machinery, which every server has — a single engine
// is a one-shard cluster — so a single-engine server honours them: the
// deadline is recorded with no merge reserve taken out of it, and the
// class is marked.
func TestOverloadParamsRequireCluster(t *testing.T) {
	srv := newTestServer(t)
	rec, body := get(t, srv, "/search?q=quick+fox&deadline_ms=10&class=batch")
	if rec.Code != http.StatusOK {
		t.Fatalf("overload parameters on a single engine: %d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DeadlineMS != 10 || resp.Class != "batch" || len(resp.Results) == 0 {
		t.Fatalf("single engine dropped the parameters: %+v", resp)
	}
	// A deadline no engine can meet is refused like a cluster's.
	if rec, body := get(t, srv, "/search?q=quick+fox&deadline_ms=0.000001"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infeasible deadline on a single engine: %d %s", rec.Code, body)
	}
}

// TestGateBoundsInflight holds max-inflight slots hostage and checks a
// queued request is served once a slot frees, while /statz reports the
// gate.
func TestGateBoundsInflight(t *testing.T) {
	srv := newTestClusterServer(t, 2, 1, 0)
	srv.ConfigureOverload(OverloadConfig{MaxInflight: 1})

	// Occupy the single slot directly.
	if err := srv.gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec, _ := get(t, srv, "/search?q=quick+fox")
		done <- rec.Code
	}()
	select {
	case code := <-done:
		t.Fatalf("request completed with %d while the gate was full", code)
	case <-time.After(50 * time.Millisecond):
	}
	srv.gate.Leave()
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}

	_, body := get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Overload == nil || st.Overload.Gate == nil {
		t.Fatalf("gated server missing overload gate block:\n%s", body)
	}
	if st.Overload.Gate.MaxInflight != 1 || st.Overload.Gate.Admitted < 2 {
		t.Fatalf("gate stats %+v", st.Overload.Gate)
	}

	_, body = get(t, srv, "/healthz")
	if !bytes.Contains(body, []byte("shed_rate")) {
		t.Fatalf("gated server /healthz missing shed_rate:\n%s", body)
	}
}

// TestGateCancelledWaiterDoesNotLeakSlot: a waiter whose client leaves
// gives its queue spot (or a just-granted slot) back.
func TestGateCancelledWaiterDoesNotLeakSlot(t *testing.T) {
	srv := newTestClusterServer(t, 2, 1, 0)
	srv.ConfigureOverload(OverloadConfig{MaxInflight: 1})
	if err := srv.gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/search?q=quick+fox", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		errc <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-errc
	srv.gate.Leave()
	// The slot must be free again: a fresh request is served immediately.
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-cancel request: %d %s", rec.Code, body)
	}
}

// TestCancelledClientIsNotAServerError: a search that dies on the
// client's own cancelled request context — the client left, as in the
// gate above — writes nothing and leaves /statz errors unchanged.
func TestCancelledClientIsNotAServerError(t *testing.T) {
	for name, srv := range map[string]*Server{
		"engine":  newTestServer(t),
		"cluster": newTestClusterServer(t, 2, 1, 0),
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodGet, "/search?q=quick+fox", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Body.Len() != 0 {
			t.Errorf("%s: wrote %q to a client that left", name, rec.Body.Bytes())
		}
		_, body := get(t, srv, "/statz")
		var st StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Errors != 0 || st.Queries != 0 {
			t.Errorf("%s: cancelled request counted: errors=%d queries=%d", name, st.Errors, st.Queries)
		}
	}
}

// TestStatzOverloadBlock drives a cluster with overload controls on and
// checks the /statz block carries the cluster-side counters.
func TestStatzOverloadBlock(t *testing.T) {
	srv := newOverloadClusterServer(t, overload.Config{
		DefaultDeadline: time.Second,
		RetryBudget:     0.1,
	})
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DeadlineMS != 1000 {
		t.Fatalf("default deadline not applied: %+v", resp)
	}
	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Overload == nil {
		t.Fatalf("overload-enabled server missing /statz block:\n%s", body)
	}
	if st.Overload.DefaultDeadlineMS != 1000 || st.Overload.MergeReserveMS <= 0 {
		t.Fatalf("overload block %+v", st.Overload)
	}
	if st.Overload.RetryBudget == nil || st.Overload.RetryBudget.Admissions == 0 {
		t.Fatalf("retry budget block %+v", st.Overload.RetryBudget)
	}
	if st.Overload.Gate != nil {
		t.Fatalf("ungated server reports a gate: %+v", st.Overload.Gate)
	}
	_, body = get(t, srv, "/healthz")
	if !bytes.Contains(body, []byte("shed_rate")) || !bytes.Contains(body, []byte("brownout_level")) {
		t.Fatalf("overload-enabled /healthz missing signals:\n%s", body)
	}
}
