package workload

// StartPartitionHeld is StartPartition with the hook each worker calls
// before it splits term t, for this directory's external tests.
var StartPartitionHeld = startPartition
