package main

import (
	"bytes"
	"context"
	"sort"
	"strings"

	"repro/internal/obs"
)

// rootSpan names the span that brackets one traced workload operation; its
// duration is the traced wall time and its self time is the part no layer
// span accounts for.
const rootSpan = "workload"

// recorder keeps a span journal in memory, in the internal/obs JSONL
// format, so a later in-program tracer can write into the same journal. A
// nil recorder still runs every step, untraced.
type recorder struct {
	buf bytes.Buffer
	tr  *obs.Tracer
}

func newRecorder(process string) *recorder {
	r := &recorder{}
	r.tr = obs.NewTracer(&r.buf, process)
	return r
}

func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// step runs f inside a span named name, a child of ctx's current span.
func (r *recorder) step(ctx context.Context, name string, f func() error) error {
	_, sp := r.tracer().Start(ctx, name)
	defer sp.End()
	return f()
}

// journal returns the spans recorded so far.
func (r *recorder) journal() ([]obs.SpanRecord, error) {
	if r == nil {
		return nil, nil
	}
	return obs.ReadJournal(bytes.NewReader(r.buf.Bytes()))
}

// spanTimes folds a journal into per-name totals: the summed duration of
// every span of that name and the summed self time (duration minus the
// part of its interval covered by its direct children), in seconds.
func spanTimes(recs []obs.SpanRecord) (dur, self map[string]float64) {
	children := make(map[string][]obs.SpanRecord)
	for _, r := range recs {
		if r.ParentID != "" {
			children[r.ParentID] = append(children[r.ParentID], r)
		}
	}
	dur = make(map[string]float64)
	self = make(map[string]float64)
	for _, r := range recs {
		lo, hi := r.StartUS, r.StartUS+r.DurUS
		kids := children[r.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		var covered, end int64 = 0, lo
		for _, k := range kids {
			s, e := max(k.StartUS, end), min(k.StartUS+k.DurUS, hi)
			if e > s {
				covered += e - s
				end = e
			}
		}
		dur[r.Name] += float64(r.DurUS) / 1e6
		self[r.Name] += float64(r.DurUS-covered) / 1e6
	}
	return dur, self
}

// coverage is the share of the root span's duration that layer spans
// (every span but the root) account for through their self times.
func coverage(dur, self map[string]float64) float64 {
	if dur[rootSpan] == 0 {
		return 0
	}
	var layers float64
	for name, s := range self {
		if name != rootSpan && strings.Contains(name, ".") {
			layers += s
		}
	}
	return layers / dur[rootSpan]
}
