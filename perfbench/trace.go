package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call recorded by the traced run. Times are nanoseconds
// since the tracer's origin; parent is an index into the same tracer's
// spans (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Step   int32  `json:"step"`
	Rank   int8   `json:"rank"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans of one rank into a buffer allocated up front, so
// recording allocates nothing; spans beyond its capacity are counted and
// dropped. One tracer belongs to one goroutine.
type tracer struct {
	origin  time.Time
	rank    int8
	step    int32
	spans   []span
	dropped int
}

func newTracer(origin time.Time, rank, capacity int) *tracer {
	return &tracer{origin: origin, rank: int8(rank), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its index (-1 when dropped).
func (t *tracer) begin(name string, parent int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)),
		Parent: parent, Step: t.step, Rank: t.rank})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.origin))
	}
}

func (t *tracer) setKind(i int32, kind string) {
	if i >= 0 {
		t.spans[i].Kind = kind
	}
}

// selfTimes returns every span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for j, v := range iv {
		switch {
		case j == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
