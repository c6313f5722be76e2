package core

import (
	"errors"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// tinyDevice returns a device whose memory is too small for real lists,
// forcing allocation failures mid-query.
func tinyDevice(memory int64) *gpu.Device {
	model := hwmodel.DefaultGPU()
	model.MemoryBytes = memory
	return gpu.New(model, 0)
}

func TestGPUSearchPropagatesOOM(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   10,
		MaxListLen: 200_000,
		MinListLen: 100_000,
		Alpha:      0.3,
		Seed:       61,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice(64 << 10) // 64 KB: nothing fits
	e, err := New(c.Index, Config{Mode: GPUOnly, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Search([]string{c.Terms[0], c.Terms[1]})
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Partial allocations from the failed query must not leak forever:
	// after the error the device should be re-usable once freed. (The
	// engine frees its tracked buffers via the deferred freeAll.)
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("failed query leaked %d device bytes", got)
	}
}

func TestHybridSearchPropagatesOOM(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   10,
		MaxListLen: 200_000,
		MinListLen: 100_000,
		Alpha:      0.3,
		Seed:       62,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice(64 << 10)
	e, err := New(c.Index, Config{Mode: Hybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Search([]string{c.Terms[0], c.Terms[1]})
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("failed query leaked %d device bytes", got)
	}
}

func TestCPUOnlyUnaffectedByTinyDevice(t *testing.T) {
	// CPU-only mode never touches the device even if one is configured.
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    100_000,
		NumTerms:   5,
		MaxListLen: 20_000,
		MinListLen: 5_000,
		Alpha:      0.3,
		Seed:       63,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c.Index, Config{Mode: CPUOnly, Device: tinyDevice(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search([]string{c.Terms[0], c.Terms[1]}); err != nil {
		t.Fatalf("CPU-only failed with tiny device: %v", err)
	}
}
