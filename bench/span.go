package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function — never from inside the program.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer started
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Request int32  `json:"request"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so one replay serves the traced and the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, request int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Request: request})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns each span name's total self time: its spans'
// durations minus the part their child spans cover. Children of one span
// never overlap, since every replay is sequential.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// perRequest returns, for every request with at least one span of the
// given name, the summed duration of those spans in seconds.
func perRequest(spans []span, name string) []float64 {
	sum := map[int32]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			sum[s.Request] += s.dur()
		}
	}
	return durations(sum)
}

// childSums returns, per request, the summed duration of the direct
// children of the request's root spans, in seconds.
func childSums(spans []span) []float64 {
	sum := map[int32]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			sum[s.Request] += s.dur()
		}
	}
	return durations(sum)
}

func durations(m map[int32]time.Duration) []float64 {
	out := make([]float64, 0, len(m))
	for _, d := range m {
		out = append(out, d.Seconds())
	}
	return out
}

// writeTrace writes the spans as JSON.
func (t *tracer) writeTrace(path, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes prints self time per span name, largest first.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(self[b], self[a]) })
	fmt.Fprintf(w, "%-30s %12s %7s\n", "self time per layer", "ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %12.3f %6.1f%%\n", n, self[n].Seconds()*1000, 100*self[n].Seconds()/total.Seconds())
	}
}
