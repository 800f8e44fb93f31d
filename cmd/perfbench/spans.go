package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"

	"svbench/internal/sweep"
)

// span is one timed call into a layer (or a grouping of such calls),
// recorded by the benchmark around the program's public entry points.
type span struct {
	name       string
	track      int // Perfetto thread: 0 is the trial's own goroutine, 1..jobs the sweep workers
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// recorder keeps spans and counters in memory for one traced trial; they
// are written out only after the trial ends.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id for end and for child spans.
func (r *recorder) begin(name string, track, parent int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, track: track, parent: parent, start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// within runs fn inside a span.
func (r *recorder) within(name string, track, parent int, fn func()) {
	id := r.begin(name, track, parent)
	fn()
	r.end(id)
}

// trialSweep opens a trial's root span and, inside it, a "sweep" span
// around each(n, jobs, ...). It returns the trial span still open, for
// the caller to add serial phases to and end.
func (r *recorder) trialSweep(n, jobs int, label func(int) string, fn func(i, track, task int)) int {
	root := r.begin("trial", 0, -1)
	sw := r.begin("sweep", 0, root)
	r.each(n, jobs, sw, label, fn)
	r.end(sw)
	return root
}

// add accumulates a counter measured at a layer boundary.
func (r *recorder) add(counter string, v float64) {
	r.mu.Lock()
	r.counts[counter] += v
	r.mu.Unlock()
}

// each runs fn(i, track, task) for every i in [0, n) on sweep.Each with
// jobs workers, the pool the program's own sweeps use. Each call runs in
// a span named label(i) under parent, on the track of the worker running
// it, so Perfetto shows one row per worker.
func (r *recorder) each(n, jobs, parent int, label func(int) string, fn func(i, track, task int)) {
	// The pool of worker track ids: one slot per worker, so a receive
	// never blocks while another worker still holds its id.
	tracks := make(chan int, jobs)
	for t := 1; t <= jobs; t++ {
		tracks <- t
	}
	sweep.Each(n, jobs, func(i int) {
		tr := <-tracks
		id := r.begin(label(i), tr, parent)
		fn(i, tr, id)
		r.end(id)
		tracks <- tr
	})
}

// find returns the id of the first span called name, or -1.
func (r *recorder) find(name string) int {
	for i, s := range r.spans {
		if s.name == name {
			return i
		}
	}
	return -1
}

// children returns the ids of id's direct children.
func (r *recorder) children(id int) []int {
	var out []int
	for i, s := range r.spans {
		if s.parent == id {
			out = append(out, i)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time of the spans in
// root's subtree: each span's duration minus the part of its interval
// its children cover (children on other tracks included, so a sweep
// span's self time is the time no worker was running a task).
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	kids := map[int][]int{}
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id]
		var ivs [][2]time.Duration
		for _, c := range kids[id] {
			cs := r.spans[c]
			ivs = append(ivs, [2]time.Duration{max(cs.start, s.start), min(cs.end, s.end)})
			walk(c)
		}
		out[s.name] += s.end - s.start - covered(ivs)
	}
	walk(root)
	return out
}

// covered returns the length of the union of intervals, which start at
// or after time zero.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, hi time.Duration
	for _, iv := range ivs {
		if lo := max(iv[0], hi); iv[1] > lo {
			total += iv[1] - lo
			hi = iv[1]
		}
	}
	return total
}

// chromeJSON renders the spans in the Chrome trace_event format (the
// format internal/trace exports), which Perfetto and chrome://tracing
// load: one complete event per span, one thread per track.
func (r *recorder) chromeJSON() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	seen := map[int]bool{}
	for _, s := range r.spans {
		if seen[s.track] {
			continue
		}
		seen[s.track] = true
		name := "trial"
		if s.track > 0 {
			name = "worker " + strconv.Itoa(s.track)
		}
		evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.track,
			Args: map[string]any{"name": name}})
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range r.spans {
		ev := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.track}
		if s.parent >= 0 {
			ev.Args = map[string]any{"parent": r.spans[s.parent].name}
		}
		evs = append(evs, ev)
	}
	return json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}
