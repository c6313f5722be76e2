package wal

import (
	"io"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestCheckpointStreamedDoesNotBlockAppends: a checkpoint stuck in a slow
// writer must not hold up write acknowledgements. The slow writer is a
// FIFO planted at the checkpoint's temp path: the header fits the pipe,
// the payload fills it and blocks until somebody reads.
func TestCheckpointStreamedDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Site: "t", SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tmp := s.ckptPath(9) + ".tmp"
	if err := syscall.Mkfifo(tmp, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	pipe, err := os.OpenFile(tmp, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ix := docLensIndex(t, 100_000) // 400 KB: several pipe buffers
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint(ix, 9) }()

	// The header arriving means the checkpoint is past its bookkeeping and
	// writing; nothing drains the payload, so it stays there.
	if _, err := io.ReadFull(pipe, make([]byte, ckptHeaderLen)); err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	go func() { appended <- s.Append(0, mkRecords(1, 1)[0]) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("append during a checkpoint: %v", err)
		}
	case err := <-ckpt:
		t.Fatalf("checkpoint finished against an undrained pipe: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("append waited for the checkpoint in flight")
	}

	// Drain the pipe so the checkpoint can finish. A pipe cannot be
	// patched in place, so it fails — and must not count as a checkpoint.
	go io.Copy(io.Discard, pipe)
	if err := <-ckpt; err == nil {
		t.Error("checkpoint into a pipe reported success")
	}
	if st := s.Stats(); st.Checkpoints != 0 || st.Appends != 1 {
		t.Errorf("stats after a failed checkpoint and one append: %+v", st)
	}
}
