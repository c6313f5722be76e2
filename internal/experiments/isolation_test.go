package experiments

import (
	"encoding/json"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// TestFigureIsolation: Figs. 7, 8, 12 and 13, each run alone on a fresh
// Config, print exactly the tables they print in the suite's order, where
// every study before them has run on the same device. A device keeps no
// timing history, so no figure inherits a warm-up from another.
func TestFigureIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	alone := map[string]bool{"fig7": true, "fig8": true, "fig12": true, "fig13": true}
	inOrder := map[string][]byte{}
	for _, st := range Studies {
		tables, err := st.Run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if alone[st.Key] {
			inOrder[st.Key] = mustJSON(t, tables)
		}
		if st.Key == "fig13" {
			break
		}
	}
	for _, st := range Studies {
		if !alone[st.Key] {
			continue
		}
		fresh := cfg
		fresh.Device = gpu.New(hwmodel.DefaultGPU(), 0)
		tables, err := st.Run(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, tables); string(got) != string(inOrder[st.Key]) {
			t.Errorf("%s alone:\n%s\nin the suite's order:\n%s", st.Key, got, inOrder[st.Key])
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
