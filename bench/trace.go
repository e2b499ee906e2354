package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval: a layer call, an op or request around such
// calls, a setup step or a probe. Spans of one op or request share Op;
// Parent is the id of the enclosing span (0 for a root).
type span struct {
	Name   string
	Case   string
	Op     int
	Parent int
	Tid    int
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

func (s *span) dur() float64 { return (s.End - s.Start).Seconds() }

// recorder keeps spans in memory until the run writes them out. A nil
// *recorder records nothing, which is how untraced code paths run the same
// code without paying for it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, cs string, op, parent, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Case: cs, Op: op, Parent: parent, Tid: tid, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Span roots: op spans wrap one traced library call, request spans one
// client round trip, and setup and probe spans sit outside both.
const (
	rootOp      = "op"
	rootRequest = "request"
	rootSetup   = "setup"
	rootProbe   = "probe"
)

// Thread ids of the trace viewer's rows.
const (
	tidSetup = 1
	tidOps   = 2 // serve-churn client c uses tidOps+1+c
	tidProbe = 10
)

// selfTimes returns every span's duration minus the time its direct
// children cover; children of one span never overlap.
func (r *recorder) selfTimes() []float64 {
	self := make([]float64, len(r.spans))
	for i := range r.spans {
		self[i] += r.spans[i].dur()
		if p := r.spans[i].Parent; p > 0 {
			self[p-1] -= r.spans[i].dur()
		}
	}
	return self
}

// rootName returns the name of the root span above span index i.
func (r *recorder) rootName(i int) string {
	for r.spans[i].Parent > 0 {
		i = r.spans[i].Parent - 1
	}
	return r.spans[i].Name
}

// perCase groups the self times (or whole durations, with whole=true) of
// the spans named name under a root named root by case.
func (r *recorder) perCase(name, root string, whole bool) map[string][]float64 {
	self := r.selfTimes()
	out := map[string][]float64{}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != name || r.rootName(i) != root {
			continue
		}
		v := self[i]
		if whole {
			v = s.dur()
		}
		out[s.Case] = append(out[s.Case], v)
	}
	return out
}

// sumOfMedians is the per-cycle figure of a layer: the sum over cases of
// each case's median.
func sumOfMedians(byCase map[string][]float64) float64 {
	var t float64
	for _, xs := range byCase {
		t += median(xs)
	}
	return t
}

// chromeEvent is one complete event of the Chrome trace-event format, which
// Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		parent := ""
		if s.Parent > 0 {
			parent = r.spans[s.Parent-1].Name
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: r.rootName(i), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"case": s.Case, "op": s.Op, "parent": parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
