package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// midmean is the interquartile mean: the mean of what is left after the
// lowest and the highest quarter of the values are dropped. The per-pass
// rates it is used on are disturbed in two ways: a burst of machine noise
// slows a few passes (where a median is steadier than a mean), and on
// mixed_ingest a background merge slows about half of them (where a median
// flips between the two halves and a mean is steadier). The midmean holds
// up under both.
func midmean(v []float64) float64 {
	s := sortedCopy(v)
	drop := len(s) / 4
	return mean(s[drop : len(s)-drop])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opResult is one request as the load generator saw it. Bodies are kept
// raw and parsed after the timed phases, so checking never steals a core
// from the run.
type opResult struct {
	query  int           // index into the fixture's queries; -1 for a write
	lat    time.Duration // closed loop: from send; open loop: from due time
	lag    time.Duration // open loop: how late the generator sent it
	start  time.Duration // closed loop: send time since the phase began
	pass   int           // open loop: which repetition of the schedule
	status int
	body   []byte
	err    error
}

func (r *opResult) write() bool { return r.query < 0 }
func (r *opResult) ok() bool    { return r.err == nil && r.status == http.StatusOK }

// driver sends the fixture's reads and scripted writes to one server.
type driver struct {
	fx   *fixture
	base string // "http://127.0.0.1:port"
	hc   *http.Client
	muts []*mutator // one per client; nil on read-only workloads
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		IdleConnTimeout: time.Minute,
	}, Timeout: 60 * time.Second}
}

func (d *driver) do(req *http.Request, r *opResult) {
	resp, err := d.hc.Do(req)
	if err != nil {
		r.err = err
		return
	}
	r.status = resp.StatusCode
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
}

func (d *driver) read(q int) opResult {
	r := opResult{query: q}
	req, err := http.NewRequest(http.MethodGet, d.base+d.fx.urls[q], nil)
	if err != nil {
		r.err = err
		return r
	}
	d.do(req, &r)
	return r
}

// write sends the client's next scripted mutation and commits it to the
// script's live set only when the server acknowledged it.
func (d *driver) write(client int) opResult {
	m := d.muts[client]
	mu, target := m.generate()
	r := opResult{query: -1}
	body, _ := json.Marshal(mu)
	req, err := http.NewRequest(http.MethodPost, d.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	d.do(req, &r)
	if r.ok() {
		m.commit(mu, target)
	}
	return r
}

// phaseResult is one load phase's raw outcome.
type phaseResult struct {
	ops     []opResult
	elapsed time.Duration // first send until the last reply
	// marks[k] is when the closed loop's cursor began its k-th pass over
	// the cycled queries, with the server's CPU time at that moment.
	marks []cycleMark
	// scheduled is how long the open loop's arrival schedule spans.
	scheduled time.Duration
}

type cycleMark struct {
	at   time.Duration
	cpuS float64
}

// replay sends the first n log queries in order from one client, so
// nothing overlaps and the modeled latencies repeat exactly.
func (d *driver) replay(n int) phaseResult {
	t0 := time.Now()
	out := phaseResult{ops: make([]opResult, 0, n)}
	for q := 0; q < n; q++ {
		s := time.Now()
		r := d.read(q % len(d.fx.queries))
		r.lat = time.Since(s)
		out.ops = append(out.ops, r)
	}
	out.elapsed = time.Since(t0)
	return out
}

// closed runs a closed loop: each client sends its next request only after
// the previous one completed. Reads cycle the first cycle queries of the log
// through a shared cursor, so every pass is the same work in the same order;
// with writeShare > 0 each op is a write with that probability (coin flips
// from scheduleSeed, like the open loop's). sampleCPU, when set, is read at
// the start of every pass.
func (d *driver) closed(clients int, dur time.Duration, cycle int, writeShare float64, sampleCPU func() float64) phaseResult {
	var cursor atomic.Int64
	var mu sync.Mutex
	marks := map[int]cycleMark{}
	perClient := make([][]opResult, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(scheduleSeed*31 + int64(c)))
			for time.Now().Before(deadline) {
				var r opResult
				if writeShare > 0 && rng.Float64() < writeShare {
					s := time.Now()
					r = d.write(c)
					r.start, r.lat = s.Sub(t0), time.Since(s)
				} else {
					g := int(cursor.Add(1) - 1)
					if g%cycle == 0 {
						m := cycleMark{at: time.Since(t0)}
						if sampleCPU != nil {
							m.cpuS = sampleCPU()
						}
						mu.Lock()
						marks[g/cycle] = m
						mu.Unlock()
					}
					s := time.Now()
					r = d.read(g % cycle)
					r.start, r.lat = s.Sub(t0), time.Since(s)
				}
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	out := phaseResult{elapsed: time.Since(t0)}
	for _, ops := range perClient {
		out.ops = append(out.ops, ops...)
	}
	for k := 0; k < len(marks); k++ {
		out.marks = append(out.marks, marks[k])
	}
	return out
}

// cycleStats returns, for every complete pass of the closed loop, the rate
// of successful ops and the server CPU seconds per 1 000 of them. Passes do
// identical work, so a robust average over passes (midmean) drops a
// transient stall from the number without hiding a lasting slowdown.
func cycleStats(res *phaseResult) (rates, cpuPerKop []float64) {
	for k := 0; k+1 < len(res.marks); k++ {
		lo, hi := res.marks[k], res.marks[k+1]
		n := 0
		for i := range res.ops {
			if op := &res.ops[i]; op.ok() && op.start >= lo.at && op.start < hi.at {
				n++
			}
		}
		if n == 0 || hi.at <= lo.at {
			continue
		}
		rates = append(rates, float64(n)/(hi.at-lo.at).Seconds())
		cpuPerKop = append(cpuPerKop, (hi.cpuS-lo.cpuS)/(float64(n)/1000))
	}
	return rates, cpuPerKop
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due   time.Duration // offset from the phase start
	query int           // log position of a read; -1 for a write
	pass  int           // which repetition of the pass schedule it belongs to
}

// scheduleSeed fixes the arrival gaps and the read/write coin flips, for
// the reason logSeed fixes the log: open-loop tails depend on which slow
// queries arrive close together, and redrawing the gaps moves open_p99_ms
// by tens of percent. The shape of the traffic is a constant of the
// benchmark; -seed decides the data it runs against.
const scheduleSeed = 3

// passSchedule draws one pass of Poisson arrivals: reads of log positions
// 0..cycle-1 in order, each op a write instead with probability writeShare.
// The gaps are scaled so that the pass offers exactly the given rate. It
// returns the arrivals and the pass length.
func passSchedule(rate float64, cycle int, writeShare float64, seed int64) ([]arrival, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var at []float64
	t := 0.0
	for q := 0; q < cycle; {
		t += rng.ExpFloat64()
		a := arrival{query: q}
		if writeShare > 0 && rng.Float64() < writeShare {
			a.query = -1
		} else {
			q++
		}
		out, at = append(out, a), append(at, t)
	}
	t += rng.ExpFloat64()
	length := float64(len(out)) / rate // seconds
	for i := range out {
		out[i].due = time.Duration(at[i] / t * length * float64(time.Second))
	}
	return out, time.Duration(length * float64(time.Second))
}

// repeatSchedule lays whole passes end to end for as long as they fit in
// dur (at least one), so every pass offers the same requests at the same
// offsets.
func repeatSchedule(pass []arrival, passLen, dur time.Duration) []arrival {
	var out []arrival
	for k := 0; k == 0 || time.Duration(k+1)*passLen <= dur; k++ {
		for _, a := range pass {
			a.due += time.Duration(k) * passLen
			a.pass = k
			out = append(out, a)
		}
	}
	return out
}

// openTiming is what the open-loop scheduler measured for one arrival.
type openTiming struct {
	lag time.Duration // send time minus due time
	lat time.Duration // completion minus due time
}

// runOpen executes an open-loop schedule: senders goroutines each take the
// next due arrival, wait for its due time and call send. Latency counts
// from the due time, so a stall is charged to every request it delays;
// lag reports how late the generator itself ran.
func runOpen(sched []arrival, senders int, send func(sender, i int, a arrival)) ([]openTiming, time.Duration) {
	timings := make([]openTiming, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Now()
				send(s, i, sched[i])
				timings[i] = openTiming{lag: start.Sub(due), lat: time.Since(due)}
			}
		}(s)
	}
	wg.Wait()
	return timings, time.Since(t0)
}

// open runs the open-loop phase at a fixed rate against the server, over
// the same cycled queries as the closed loop. ops[i].pass tells the passes
// apart.
func (d *driver) open(senders int, rate float64, dur time.Duration, cycle int, writeShare float64) phaseResult {
	pass, passLen := passSchedule(rate, cycle, writeShare, scheduleSeed)
	sched := repeatSchedule(pass, passLen, dur)
	ops := make([]opResult, len(sched))
	timings, elapsed := runOpen(sched, senders, func(s, i int, a arrival) {
		if a.query < 0 {
			ops[i] = d.write(s)
		} else {
			ops[i] = d.read(a.query)
		}
	})
	for i := range ops {
		ops[i].lat, ops[i].lag, ops[i].pass = timings[i].lat, timings[i].lag, sched[i].pass
	}
	passes := sched[len(sched)-1].pass + 1
	return phaseResult{ops: ops, elapsed: elapsed, scheduled: time.Duration(passes) * passLen}
}
