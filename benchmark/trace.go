package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one flight
// share its Flight number; Parent is the span that caused this one (0 =
// none). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Flight  int32  `json:"flight"`
}

// tracer keeps spans in memory until the run ends. It is recorded from
// the benchmark's own files, around calls into each layer's public
// functions; the program under test is not instrumented.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	flight int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent int32, name string, start, end time.Time, flight int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), flight})
	return id
}

// flightSpans records one client.flight span with its client.send and
// client.receive children (kind, e.g. ".read", suffixes all three when a
// workload has two kinds of flight). The flight's self time — what
// neither child covers — is the wait for the server's first reply.
func (t *tracer) flightSpans(kind string, ft flightTimes) {
	t.mu.Lock()
	t.flight++
	f := t.flight
	t.mu.Unlock()
	id := t.add(0, "client.flight"+kind, ft.start, ft.done, f)
	t.add(id, "client.send"+kind, ft.start, ft.sent, f)
	t.add(id, "client.receive"+kind, ft.first, ft.done, f)
}

// call times fn as a child span of parent.
func (t *tracer) call(parent int32, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, start, end, 0)
	return end.Sub(start)
}

// durationsUs returns the durations of every span called name, in µs.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
