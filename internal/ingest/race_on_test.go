//go:build race

package ingest

// raceDetector reports that the race detector's instrumentation (several
// times slower, by design) is compiled in: wall-clock bounds scale by it.
const raceDetector = true
