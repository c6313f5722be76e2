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

func newLiveServer(t *testing.T, freshness int) (*Server, *ingest.Cluster) {
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
	return NewLive(c, freshness), c
}

// liveRows are the live constructor's two shapes: over a single-node
// engine (a one-shard cluster) and over a 2-shard live cluster.
var liveRows = []struct {
	name   string
	shards int
	open   func(t *testing.T, freshness int) (*Server, *ingest.Cluster)
}{
	{"engine", 1, newLiveServer},
	{"cluster", 2, newLiveClusterServer},
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
// through the delta, and /statz grows the ingest block with the
// topology; the document stays served across a merge commit and across
// the engine swaps of a Quiesce.
func TestIngestEndpointLiveSearch(t *testing.T) {
	for _, row := range liveRows {
		t.Run(row.name, func(t *testing.T) {
			s, e := row.open(t, 0)

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

			served := func(tag string) {
				t.Helper()
				var res SearchResponse
				getJSON(t, s, "/search?q=zebra+habitat", &res)
				if len(res.Results) != 1 || res.Results[0].DocID != 100 {
					t.Fatalf("%s: ingested doc not served: %+v", tag, res.Results)
				}
			}
			served("delta")

			var st StatsResponse
			getJSON(t, s, "/statz", &st)
			if st.Ingest == nil {
				t.Fatal("/statz missing ingest block on a live server")
			}
			if st.Ingest.Gen != 1 || st.Ingest.Adds != 1 || st.Ingest.Accepted != 1 || st.Ingest.DeltaDocs != 1 ||
				st.Ingest.Shards != row.shards || len(st.Ingest.ShardDelta) != row.shards {
				t.Fatalf("ingest telemetry = %+v", st.Ingest)
			}
			if len(st.Shards) != row.shards {
				t.Fatalf("/statz has %d per-shard telemetry rows, want %d", len(st.Shards), row.shards)
			}

			// Across a merge commit the document moves from the delta into
			// the serving segment and stays served.
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			served("merged")
			getJSON(t, s, "/statz", &st)
			if st.Ingest.Merges != 1 || st.Ingest.DeltaDocs != 0 {
				t.Fatalf("ingest telemetry after the merge = %+v", st.Ingest)
			}

			if err := e.Quiesce(); err != nil {
				t.Fatal(err)
			}
			served("quiesced")
			var h struct {
				Status string `json:"status"`
				Shards int    `json:"shards"`
			}
			getJSON(t, s, "/healthz", &h)
			if h.Status != "ok" || h.Shards != row.shards {
				t.Fatalf("healthz after quiesce: %+v", h)
			}
		})
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

// Lag is the records pending in deltas at every shard count: one
// document mutated twice with nothing merged is two mutations and one
// record, on /ingest, /healthz and /statz alike.
func TestIngestLagIsPendingRecords(t *testing.T) {
	for _, row := range liveRows {
		t.Run(row.name, func(t *testing.T) {
			s, _ := row.open(t, 10)
			postIngest(t, s, `{"op":"update","doc_id":100,"tokens":["zebra"]}`)
			w := postIngest(t, s, `{"op":"update","doc_id":100,"tokens":["zebra","habitat"]}`)
			var ack IngestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
				t.Fatalf("ack: %v\n%s", err, w.Body.String())
			}
			var health map[string]any
			getJSON(t, s, "/healthz", &health)
			var st StatsResponse
			getJSON(t, s, "/statz", &st)
			if ack.Gen != 2 || ack.Lag != 1 || health["ingest_lag"] != float64(1) ||
				st.Ingest.Gen != 2 || st.Ingest.Lag != 1 || st.Ingest.DeltaDocs != 1 {
				t.Errorf("/ingest ack %+v, /healthz ingest_lag %v, /statz ingest %+v: want gen 2, lag 1, delta_docs 1",
					ack, health["ingest_lag"], st.Ingest)
			}
		})
	}
}
