package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/ingest"
)

func newLiveServer(t *testing.T, freshness int) (*Server, *ingest.Engine) {
	t.Helper()
	e, err := ingest.New(testIndex(t), ingest.Config{
		Engine: core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return NewLive(e, freshness), e
}

func newLiveClusterServer(t *testing.T, freshness int) (*Server, *ingest.Cluster) {
	t.Helper()
	c, err := ingest.OpenCluster(testIndex(t), ingest.ClusterConfig{
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return NewLiveCluster(c, freshness), c
}

func postIngest(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/ingest", bytes.NewBufferString(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func getJSON(t *testing.T, s *Server, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, w.Body.String())
		}
	}
	return w
}

// A mutation POSTed to /ingest is visible to the very next /search
// through the delta, and /statz grows the ingest block.
func TestIngestEndpointLiveSearch(t *testing.T) {
	s, _ := newLiveServer(t, 0)

	var before SearchResponse
	getJSON(t, s, "/search?q=zebra+habitat", &before)
	if len(before.Results) != 0 {
		t.Fatalf("fresh-term query matched before ingest: %+v", before.Results)
	}

	w := postIngest(t, s, `{"op":"add","doc_id":100,"text":"zebra habitat zebra"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	var ack IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Gen != 1 || ack.Lag != 1 {
		t.Fatalf("ack = %+v, want gen 1 lag 1", ack)
	}

	var after SearchResponse
	getJSON(t, s, "/search?q=zebra+habitat", &after)
	if len(after.Results) != 1 || after.Results[0].DocID != 100 {
		t.Fatalf("ingested doc not served: %+v", after.Results)
	}

	var st StatsResponse
	getJSON(t, s, "/statz", &st)
	if st.Ingest == nil {
		t.Fatal("/statz missing ingest block on a live server")
	}
	if st.Ingest.Gen != 1 || st.Ingest.Adds != 1 || st.Ingest.Accepted != 1 || st.Ingest.DeltaDocs != 1 {
		t.Fatalf("ingest telemetry = %+v", st.Ingest)
	}
}

// Invalid mutations are the caller's fault (400); the op vocabulary is
// closed; bodies must parse.
func TestIngestEndpointValidation(t *testing.T) {
	s, _ := newLiveServer(t, 0)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"op":"add","doc_id":1,"tokens":["x"]}`, http.StatusBadRequest}, // doc 1 exists
		{`{"op":"delete","doc_id":998}`, http.StatusBadRequest},           // absent
		{`{"op":"add","doc_id":50}`, http.StatusBadRequest},               // no tokens
		{`{"op":"frobnicate","doc_id":50}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"op":"update","doc_id":999,"tokens":["x"]}`, http.StatusOK}, // upsert by design
		{`{"op":"add","doc_id":50,"tokens":["ok"]}`, http.StatusOK},
	} {
		if w := postIngest(t, s, tc.body); w.Code != tc.code {
			t.Errorf("%s -> %d, want %d (%s)", tc.body, w.Code, tc.code, w.Body.String())
		}
	}
	// Read-only servers don't register the route at all.
	if w := postIngest(t, newTestServer(t), `{"op":"add","doc_id":9,"tokens":["x"]}`); w.Code != http.StatusNotFound {
		t.Fatalf("read-only server answered /ingest with %d", w.Code)
	}
}

// Merge lag beyond the freshness threshold degrades /healthz — still
// 200 (stale but serving), never unhealthy; merging restores "ok".
func TestHealthzFreshnessDegraded(t *testing.T) {
	s, e := newLiveServer(t, 2)

	health := func() (string, int) {
		var h struct {
			Status string `json:"status"`
			Lag    uint64 `json:"ingest_lag"`
		}
		w := getJSON(t, s, "/healthz", &h)
		if w.Code != http.StatusOK {
			t.Fatalf("healthz status code %d", w.Code)
		}
		return h.Status, int(h.Lag)
	}

	if got, lag := health(); got != "ok" || lag != 0 {
		t.Fatalf("fresh server: status %q lag %d", got, lag)
	}
	for i := uint32(0); i < 3; i++ {
		if err := e.Add(200+i, []string{"stale"}); err != nil {
			t.Fatal(err)
		}
	}
	st, lag := health()
	if st != "degraded" || lag != 3 {
		t.Fatalf("lagging server: status %q lag %d, want degraded at lag 3 > threshold 2", st, lag)
	}
	if err := e.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got, lag := health(); got != "ok" || lag != 0 {
		t.Fatalf("quiesced server: status %q lag %d", got, lag)
	}
}

// The live cluster backend serves /search through the current cluster
// incarnation, accepts /ingest, reports cluster ingest telemetry, and
// follows engine swaps across Quiesce.
func TestLiveClusterEndpoints(t *testing.T) {
	s, c := newLiveClusterServer(t, 0)

	w := postIngest(t, s, `{"op":"add","doc_id":77,"text":"zebra habitat"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	var res SearchResponse
	getJSON(t, s, "/search?q=zebra", &res)
	if len(res.Results) != 1 || res.Results[0].DocID != 77 {
		t.Fatalf("cluster did not serve ingested doc: %+v", res.Results)
	}

	var st StatsResponse
	getJSON(t, s, "/statz", &st)
	if st.Ingest == nil || st.Ingest.Shards != 2 || st.Ingest.DeltaDocs != 1 {
		t.Fatalf("cluster ingest telemetry = %+v", st.Ingest)
	}
	if len(st.Shards) == 0 {
		t.Fatal("cluster /statz lost per-shard telemetry rows")
	}

	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, s, "/search?q=zebra", &res)
	if len(res.Results) != 1 || res.Results[0].DocID != 77 {
		t.Fatalf("post-quiesce cluster lost the doc: %+v", res.Results)
	}
	var h struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	getJSON(t, s, "/healthz", &h)
	if h.Status != "ok" || h.Shards != 2 {
		t.Fatalf("healthz after quiesce: %+v", h)
	}

	var raw map[string]json.RawMessage
	getJSON(t, s, "/statz", &raw)
	if _, ok := raw["ingest"]; !ok {
		t.Fatal("ingest block missing from raw /statz")
	}
}

// Read-only servers emit no ingest key at all — the legacy /statz and
// /healthz bodies are unchanged byte for byte.
func TestStatzIngestOmittedWhenReadOnly(t *testing.T) {
	for name, s := range map[string]*Server{
		"single":  newTestServer(t),
		"cluster": newTestClusterServer(t, 2, 1, 0),
	} {
		w := getJSON(t, s, "/statz", nil)
		if strings.Contains(w.Body.String(), `"ingest"`) {
			t.Errorf("%s: read-only /statz leaked an ingest block", name)
		}
		w = getJSON(t, s, "/healthz", nil)
		if strings.Contains(w.Body.String(), "ingest_lag") {
			t.Errorf("%s: read-only /healthz leaked ingest_lag", name)
		}
	}
}

// The two live backends define lag differently, and one liveWriter must
// not merge the definitions: an engine's is the mutations no merge has
// covered (gen − merged gen), a cluster's the records pending in its
// shard deltas. One document mutated twice with nothing merged tells them
// apart — two mutations, one record — on /ingest, /healthz and /statz.
func TestIngestLagIsEachBackendsOwn(t *testing.T) {
	live, _ := newLiveServer(t, 10)
	sharded, _ := newLiveClusterServer(t, 10)
	for _, tc := range []struct {
		name string
		s    *Server
		lag  uint64
	}{
		{"engine", live, 2},
		{"cluster", sharded, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			postIngest(t, tc.s, `{"op":"update","doc_id":100,"tokens":["zebra"]}`)
			w := postIngest(t, tc.s, `{"op":"update","doc_id":100,"tokens":["zebra","habitat"]}`)
			var ack IngestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
				t.Fatalf("ack: %v\n%s", err, w.Body.String())
			}
			if ack.Gen != 2 || ack.Lag != tc.lag {
				t.Errorf("/ingest ack = %+v, want gen 2 lag %d", ack, tc.lag)
			}
			var health map[string]any
			getJSON(t, tc.s, "/healthz", &health)
			if got := health["ingest_lag"]; got != float64(tc.lag) {
				t.Errorf("/healthz ingest_lag = %v, want %d", got, tc.lag)
			}
			var st StatsResponse
			getJSON(t, tc.s, "/statz", &st)
			if st.Ingest.Gen != 2 || st.Ingest.Lag != tc.lag || st.Ingest.DeltaDocs != 1 {
				t.Errorf("/statz ingest = %+v, want gen 2 lag %d delta_docs 1", st.Ingest, tc.lag)
			}
		})
	}
}
