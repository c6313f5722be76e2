package server

import (
	"net/http"
	"strings"
	"testing"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/ingest"
)

func newDurableServer(t *testing.T, cfg ingest.Config) (*Server, *ingest.Cluster) {
	t.Helper()
	if cfg.Engine.Mode == 0 {
		cfg.Engine = core.Config{Mode: core.CPUOnly}
	}
	e, err := ingest.Open(testIndex(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(e, 0), e
}

// A durable backend grows a "wal" sub-block inside /statz's ingest
// block; the in-memory backend's body never mentions it — the PR 9
// golden stays byte-identical.
func TestStatzWALBlockPresence(t *testing.T) {
	s, e := newDurableServer(t, ingest.Config{WALDir: t.TempDir()})
	defer e.Close()
	if w := postIngest(t, s, `{"op":"add","doc_id":100,"text":"zebra habitat"}`); w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	var st StatsResponse
	getJSON(t, s, "/statz", &st)
	if st.Ingest == nil || st.Ingest.WAL == nil {
		t.Fatalf("durable /statz missing ingest.wal block: %+v", st.Ingest)
	}
	if st.Ingest.WAL.Appends != 1 || st.Ingest.WAL.Syncs == 0 {
		t.Fatalf("wal telemetry = %+v, want 1 synced append", st.Ingest.WAL)
	}

	// The in-memory live server never emits the key at all.
	mem, _ := newLiveServer(t, 0)
	if w := postIngest(t, mem, `{"op":"add","doc_id":100,"text":"zebra"}`); w.Code != http.StatusOK {
		t.Fatalf("in-memory ingest status %d", w.Code)
	}
	if w := getJSON(t, mem, "/statz", nil); strings.Contains(w.Body.String(), `"wal"`) {
		t.Fatalf("in-memory /statz leaked a wal block:\n%s", w.Body.String())
	}
}

// A storage fault on the WAL append path surfaces end to end: the
// mutation is refused with 503 (unacknowledged, so recovery owes it
// nothing), /healthz degrades with the wedge reason, and reads keep
// serving the last acknowledged state.
func TestIngestStorageFaultDegradesHealth(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.TornWrite, Rate: 1},
	}})
	s, e := newDurableServer(t, ingest.Config{WALDir: t.TempDir(), Fault: inj})
	defer e.Close()

	var before struct {
		Status string `json:"status"`
	}
	w := getJSON(t, s, "/healthz", &before)
	if before.Status != "ok" || strings.Contains(w.Body.String(), "wal_wedged") {
		t.Fatalf("healthy server already wedged: %s", w.Body.String())
	}

	w = postIngest(t, s, `{"op":"add","doc_id":100,"text":"zebra habitat"}`)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "ingest unavailable") {
		t.Fatalf("torn append answered %d: %s", w.Code, w.Body.String())
	}
	// The log is wedged now: every further mutation is refused too.
	if w = postIngest(t, s, `{"op":"add","doc_id":101,"text":"okapi"}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("wedged backend accepted a mutation: %d %s", w.Code, w.Body.String())
	}

	var h struct {
		Status string `json:"status"`
		Wedged string `json:"wal_wedged"`
	}
	getJSON(t, s, "/healthz", &h)
	if h.Status != "degraded" || h.Wedged == "" {
		t.Fatalf("wedged healthz = %+v, want degraded with a wal_wedged reason", h)
	}

	var res SearchResponse
	if w := getJSON(t, s, "/search?q=quick+fox", &res); w.Code != http.StatusOK || len(res.Results) == 0 {
		t.Fatalf("wedged server stopped serving reads: %d %+v", w.Code, res)
	}
	var st StatsResponse
	getJSON(t, s, "/statz", &st)
	if st.Ingest == nil || st.Ingest.WAL == nil || !st.Ingest.WAL.Wedged {
		t.Fatalf("/statz does not report the wedge: %+v", st.Ingest)
	}
}

// The graceful-shutdown barrier (what SIGTERM triggers in
// griffin-server after the request drain): closing the engine syncs the
// WAL, so even under the deferred-sync policy every mutation the server
// acknowledged over HTTP survives a restart.
func TestServerShutdownDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := ingest.Config{
		Engine: core.Config{Mode: core.CPUOnly},
		WALDir: dir, WALSyncEvery: -1,
	}
	s, e := newDurableServer(t, cfg)
	for _, body := range []string{
		`{"op":"add","doc_id":100,"text":"zebra habitat zebra"}`,
		`{"op":"add","doc_id":101,"text":"okapi forest"}`,
		`{"op":"update","doc_id":100,"text":"zebra savanna"}`,
	} {
		if w := postIngest(t, s, body); w.Code != http.StatusOK {
			t.Fatalf("%s -> %d: %s", body, w.Code, w.Body.String())
		}
	}
	if st := e.Stats(); st.WAL == nil || st.WAL.Syncs != 0 {
		t.Fatalf("deferred-sync policy synced early: %+v", st.WAL)
	}
	e.Close() // griffin-server's deferred Close after the drain window

	r, err := ingest.Open(testIndex(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Gen(); got != 3 {
		t.Fatalf("recovered gen %d, want all 3 acknowledged mutations", got)
	}
	s2 := NewLive(r, 0)
	var res SearchResponse
	getJSON(t, s2, "/search?q=savanna", &res)
	if len(res.Results) != 1 || res.Results[0].DocID != 100 {
		t.Fatalf("restart lost the acknowledged update: %+v", res.Results)
	}
}
