//go:build !linux

package workload

import "time"

// Elsewhere a thread's CPU time is not read: a partition reports 0.

func threadCPU() time.Duration { return 0 }
