//go:build !race

package ingest

const raceDetector = false
