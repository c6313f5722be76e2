package gpu

import "time"

// ProfileEvent records one operation on a profiled stream.
type ProfileEvent struct {
	// Stream names the stream the operation ran on: the engine class for
	// the streams of a StreamSet ("copy-in", "compute", "copy-out"),
	// "stream" for a standalone one.
	Stream string
	// Kind is "launch", "h2d", "d2h", "p2p", "alloc", or "wait".
	Kind string
	// Name is the kernel name for launches, empty otherwise.
	Name string
	// Bytes is the transfer/allocation size (0 for launches).
	Bytes int64
	// Start and Took place the operation on the stream's simulated
	// timeline.
	Start time.Duration
	Took  time.Duration
}

// profileLog collects events in issue order. The streams of a StreamSet
// append to one log, so the lanes of an overlapped query interleave in it.
type profileLog struct{ events []ProfileEvent }

// EnableProfiling turns on per-operation event recording for the stream,
// the nvprof-style visibility used to understand where a query's
// simulated time goes. Recording costs nothing on the simulated clock.
func (s *Stream) EnableProfiling() {
	if s.log == nil {
		s.log = &profileLog{}
	}
}

// Profile returns the recorded events (nil unless EnableProfiling was
// called before the operations of interest). For a stream of a StreamSet
// these are the events of all the set's streams, in issue order.
func (s *Stream) Profile() []ProfileEvent {
	if s.log == nil {
		return nil
	}
	return s.log.events
}

// record appends an event if profiling is enabled; called by the Stream
// operations with the pre-operation clock and the charged duration.
func (s *Stream) record(kind, name string, bytes int64, start, took time.Duration) {
	if s.log == nil {
		return
	}
	s.log.events = append(s.log.events, ProfileEvent{
		Stream: s.lane, Kind: kind, Name: name, Bytes: bytes, Start: start, Took: took,
	})
}
