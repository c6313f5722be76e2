package workload

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"griffin/internal/index"
)

// peakChild is the argument that makes TestPartitionPeakRSS the child.
const peakChild = "partition-peak-child"

// TestPartitionPeakRSS: splitting an opened index never holds much more
// than one copy of its postings, because each list's pages of the mapping
// are let go as soon as it and its neighbours have been split. A child
// process opens a 17 MB index of 64 equal lists, reads all of it, and
// reports how far its peak RSS rose above its RSS before the split: at
// most half of what the shards' regions hold. Releasing the lists only
// once all of them were copied let it rise by all of that, the regions
// and the parent both resident at the end.
func TestPartitionPeakRSS(t *testing.T) {
	if flag.Arg(0) == peakChild {
		partitionPeakChild(t, flag.Arg(1))
		return
	}
	const lists, perList = 64, 64 << 10
	rng := rand.New(rand.NewSource(30))
	b := index.NewBuilder(index.CodecEF)
	ids, freqs := make([]uint32, perList), make([]uint32, perList)
	for term := range lists {
		cur := uint32(0)
		for i := range ids {
			// ~6 bits of docID and 28 of frequency a posting: 272 KB a list.
			cur += 1 + uint32(rng.Intn(31))
			ids[i], freqs[i] = cur, 1+uint32(rng.Intn(1<<28))
		}
		if err := b.AddPostings(TermName(term), ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if words := runBytes([]*index.Index{built}); words < 16<<20 {
		t.Fatalf("the lists hold %d bytes, want >= 16 MB", words)
	}
	path := filepath.Join(t.TempDir(), "index.grif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(os.Args[0], "-test.run=^TestPartitionPeakRSS$", "--", peakChild, path).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var growth, regions int64
	for _, line := range strings.Split(string(out), "\n") {
		if _, err := fmt.Sscanf(line, "peak %d regions %d", &growth, &regions); err == nil {
			break
		}
	}
	if regions == 0 {
		t.Fatalf("child reported no reading:\n%s", out)
	}
	t.Logf("the split raised peak RSS by %.1f MB for %.1f MB of shard regions (%.2fx)",
		float64(growth)/(1<<20), float64(regions)/(1<<20), float64(growth)/float64(regions))
	if growth > regions/2 {
		t.Errorf("the split raised peak RSS by %d bytes, want <= half the shards' %d region bytes", growth, regions)
	}
}

// partitionPeakChild opens the index at path, reads every list, splits
// it in four on two workers and prints how far VmHWM rose above VmRSS
// before the split.
func partitionPeakChild(t *testing.T, path string) {
	ix, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids, freqs [index.BlockSize]uint32
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		for k := range pl.EF.NumBlocks() {
			pl.EF.DecompressBlock(k, ids[:])
			pl.Freqs.DecodeBlock(k, freqs[:])
		}
	}
	// A worker holds its list and, until they too are split, the lists
	// either side of it: the share of the index held at once is in
	// proportion to the workers, which are fixed here.
	runtime.GOMAXPROCS(2)
	runtime.GC()
	// Reset VmHWM to VmRSS; where that is refused, the peak so far (no
	// higher than now: nothing has been freed) stands.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	before := statusBytes(t, "VmRSS:")
	shards, err := PartitionIndex(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("peak %d regions %d\n", statusBytes(t, "VmHWM:")-before, runBytes(shards))
}

// statusBytes reads a kB field of /proc/self/status.
func statusBytes(t *testing.T, field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no process status: %v", err)
	}
	defer f.Close()
	for s := bufio.NewScanner(f); s.Scan(); {
		if rest, ok := strings.CutPrefix(s.Text(), field); ok {
			var kb int64
			if _, err := fmt.Sscanf(rest, "%d kB", &kb); err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no %s in /proc/self/status", field)
	return 0
}
