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

// TestPartitionPeakRSS: splitting an opened index adds next to nothing
// to the process's memory, because a shard's lists are views of the
// mapping's blocks. A child process opens a 17 MB index of 64 equal
// lists, reads all of it, splits it in four, and reports how far its
// peak RSS rose across the split: at most 1 MB.
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
	if fi, err := os.Stat(path); err != nil || fi.Size() < 16<<20 {
		t.Fatalf("the index file: %v, want >= 16 MB", err)
	}

	out, err := exec.Command(os.Args[0], "-test.run=^TestPartitionPeakRSS$", "--", peakChild, path).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var growth int64 = -1
	for _, line := range strings.Split(string(out), "\n") {
		if _, err := fmt.Sscanf(line, "peak %d", &growth); err == nil {
			break
		}
	}
	if growth < 0 {
		t.Fatalf("child reported no reading:\n%s", out)
	}
	t.Logf("the split raised peak RSS by %.2f MB", float64(growth)/(1<<20))
	if growth > 1<<20 {
		t.Errorf("the split raised peak RSS by %d bytes, want <= 1 MB", growth)
	}
}

// partitionPeakChild opens the index at path, reads every list, splits
// it in four and prints how far VmHWM rose above VmRSS before the split.
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
	runtime.GC()
	before := statusBytes(t, "VmRSS:") // the read allocated nothing: the peak so far is about this
	shards, err := PartitionIndex(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("peak %d\n", statusBytes(t, "VmHWM:")-before)
	runtime.KeepAlive(shards)
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
