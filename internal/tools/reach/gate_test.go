package reach

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// configs are the config-shaped structs whose every field must be written
// by reached code.
var configs = []string{
	"core.Config", "cluster.Config", "overload.Config", "fault.BreakerConfig",
	"server.OverloadConfig", "gpu.BatchConfig", "ingest.Config", "ingest.ClusterConfig",
	"wal.Options", "loadsim.Spec", "experiments.Config",
}

// reasons are the only grounds on which an unreached name may stay.
var reasons = []string{
	"test law: ",   // a test asserts an invariant through it
	"facade: ",     // it is documented user API
	"zero value: ", // it is an enum's implicit zero
}

// readAllowlist parses lines of "<key> <reason>"; # starts a comment.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s: %s listed twice", path, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// gate compares the dead names with the allowlist: unlisted are dead and
// not listed, stale are listed and no longer dead.
func gate(dead []string, allow map[string]string) (unlisted, stale []string) {
	isDead := map[string]bool{}
	for _, k := range dead {
		isDead[k] = true
		if _, ok := allow[k]; !ok {
			unlisted = append(unlisted, k)
		}
	}
	for k := range allow {
		if !isDead[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

func TestReach(t *testing.T) {
	rep, err := analyze("../../..", configs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := gate(rep.dead, allow)
	for _, k := range unlisted {
		t.Errorf("%s: no root reaches it; delete it, or add %q to allowlist.txt with one of the reasons %q", k, k+" <reason>", reasons)
	}
	for _, k := range stale {
		t.Errorf("%s: on allowlist.txt but a root reaches it; delete the entry", k)
	}
	for k, reason := range allow {
		ok := false
		for _, r := range reasons {
			ok = ok || strings.HasPrefix(reason, r) && len(reason) > len(r)
		}
		if !ok {
			t.Errorf("%s: reason %q does not start with one of %q", k, reason, reasons)
		}
	}
	t.Logf("frozen by the benchmark (reached only from bench/, not gated):\n\t%s", strings.Join(rep.frozen, "\n\t"))
	t.Logf("reach: %d allowlist entries, %d exported declarations, %d config fields, %d frozen by bench",
		len(allow), rep.exported, rep.fields, len(rep.frozen))
}

// TestReachRules runs the analysis over testdata/fix, which holds one case
// per rule, and pins how each is classified.
func TestReachRules(t *testing.T) {
	rep, err := analyze("testdata/fix", []string{"a.Config"})
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{
		"a.Aliased.M",        // a method of a type only a facade alias reaches
		"a.Config.Defaulted", // a field only its own package defaults
		"a.Config.SetInTest", // a field only a test sets
		"a.OnlyTest",         // a func only a test calls
		"a.Probe",            // a type roots only type-switch on
		"a.Square.Perimeter", // a method nothing selects
		"a.Tested",           // a const roots only compare against
		"a.Unused",           // a const nobody uses
	}
	// Reached, so on neither list: a.Shape, a.Square, a.New, a.Aliased (the
	// alias reaches the type), a.Square.Area (selected only through Shape),
	// a.Square.String (fmt dispatches through Stringer), a.Config.SetByRoot
	// (a root writes it), a.Kind and a.Made (a root assigns it).
	wantFrozen := []string{"a.OnlyBench"} // a symbol only bench/ reaches
	if !reflect.DeepEqual(rep.dead, wantDead) {
		t.Errorf("dead = %q, want %q", rep.dead, wantDead)
	}
	if !reflect.DeepEqual(rep.frozen, wantFrozen) {
		t.Errorf("frozen = %q, want %q", rep.frozen, wantFrozen)
	}
	if rep.fields != 3 {
		t.Errorf("config fields = %d, want 3", rep.fields)
	}
}

// TestReachGate shows the gate failing both ways on edited copies of the
// fixture whose dead names are all listed: on a dead exported name and a
// config field the allowlist lacks, and on listed entries a root now
// reaches.
func TestReachGate(t *testing.T) {
	rep, err := analyze("testdata/fix", []string{"a.Config"})
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for _, k := range rep.dead {
		allow[k] = "test law: fixture"
	}
	if u, s := gate(rep.dead, allow); len(u)+len(s) != 0 {
		t.Fatalf("complete allowlist: unlisted %q, stale %q", u, s)
	}

	type edit struct{ file, old, new string }
	cases := []struct {
		name            string
		edits           []edit
		unlisted, stale []string
	}{
		{"a new dead func and field", []edit{
			{"internal/a/a.go", "\tSetInTest int", "\tKnob int\n\tSetInTest int"},
			{"internal/a/a.go", "func OnlyBench() {}\n", "func OnlyBench() {}\n\nfunc Extra() {}\n"},
		}, []string{"a.Config.Knob", "a.Extra"}, nil},
		{"listed entries a root now reaches", []edit{
			{"cmd/tool/main.go", "a.Config{SetByRoot: 2}", "a.Config{SetByRoot: 2, SetInTest: a.OnlyTest()}"},
		}, nil, []string{"a.Config.SetInTest", "a.OnlyTest"}},
	}
	for _, c := range cases {
		dir := copyDir(t, "testdata/fix")
		for _, e := range c.edits {
			path := filepath.Join(dir, e.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(b), e.old) {
				t.Fatalf("%s: %s holds no %q", c.name, e.file, e.old)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(b), e.old, e.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := analyze(dir, []string{"a.Config"})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if u, s := gate(rep.dead, allow); !reflect.DeepEqual(u, c.unlisted) || !reflect.DeepEqual(s, c.stale) {
			t.Errorf("%s: unlisted %q, stale %q; want %q, %q", c.name, u, s, c.unlisted, c.stale)
		}
	}
}

// copyDir copies the tree at src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil || e.IsDir() {
			if err == nil {
				err = os.MkdirAll(filepath.Join(dst, rel), 0o755)
			}
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
