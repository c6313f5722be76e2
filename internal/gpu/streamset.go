// Stream sets and events: how one query keeps the device's three engines
// busy at once.
//
// The GK110 runs a host-to-device copy, a kernel and a device-to-host copy
// side by side, but only for work issued to different CUDA streams; within
// a stream everything is in order. A tuned host thread therefore gives a
// query one stream per engine and ties them with events: it records an
// event after the op that produces a buffer (cudaEventRecord) and makes
// the stream of every consumer wait for it (cudaStreamWaitEvent). The
// upload of the next list then hides under the decompression of the
// previous one, and the query's device time is the critical path through
// the three streams instead of the sum of their ops.
package gpu

import "time"

// Event marks a point on a query's device timeline: the completion of
// everything issued to a stream before Record. The zero Event is already
// signalled — what a buffer that was resident before the query began (a
// list-cache hit) carries.
type Event struct{ at time.Duration }

// Record returns an event that signals when the work issued to s so far
// has completed.
func (s *Stream) Record() Event { return Event{at: s.elapsed} }

// Wait makes the work issued to s from now on start no earlier than e.
// The gap is idle time on s, not service time: it moves the clock only.
func (s *Stream) Wait(e Event) {
	if e.at > s.elapsed {
		s.elapsed = e.at
	}
}

// StreamSet is one query's streams, one in-order Stream per EngineClass,
// sharing a timeline origin (all clocks start at zero together) so events
// recorded on one are meaningful to the others.
type StreamSet struct {
	streams [3]Stream // indexed by EngineClass
}

// NewStreamSet returns a fresh set with zeroed clocks.
func (d *Device) NewStreamSet() *StreamSet {
	q := &StreamSet{}
	for c := range q.streams {
		q.streams[c] = Stream{dev: d, lane: EngineClass(c).String()}
	}
	return q
}

// On returns the set's stream for the given engine.
func (q *StreamSet) On(class EngineClass) *Stream { return &q.streams[class] }

// Elapsed returns the query's device clock: the latest of its streams'.
func (q *StreamSet) Elapsed() time.Duration {
	var latest time.Duration
	for c := range q.streams {
		latest = max(latest, q.streams[c].elapsed)
	}
	return latest
}

// Join is the host waiting for all of the query's device work
// (cudaDeviceSynchronize on its streams): every stream's clock moves up to
// the latest, so nothing issued afterwards starts before the host resumed.
// It returns the joined clock.
func (q *StreamSet) Join() time.Duration {
	now := q.Elapsed()
	for c := range q.streams {
		q.streams[c].elapsed = now
	}
	return now
}

// EnableProfiling turns on event recording for all the set's streams into
// one shared log, read back through any of them (Stream.Profile).
func (q *StreamSet) EnableProfiling() {
	log := &profileLog{}
	for c := range q.streams {
		q.streams[c].log = log
	}
}
