package workload

import (
	"syscall"
	"time"
)

// rusageThread is RUSAGE_THREAD, which the syscall package does not name.
const rusageThread = 1

// threadCPU returns the user and system CPU time of the calling thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
