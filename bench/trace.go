package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent is the id of the span that caused this one,
// -1 for a root. Times are nanoseconds since the recorder started.
type span struct {
	Req    int32  `json:"req"`
	ID     int32  `json:"span"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in a preallocated slice and writes them out when
// the traced run ends. A nil recorder records nothing, which is how the
// same pipeline runs untraced to measure what tracing costs.
type recorder struct {
	base    time.Time
	spans   []span
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: clk.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 when not recorded).
func (r *recorder) begin(req, parent int32, name string) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: int64(clk.Now().Sub(r.base))})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(clk.Now().Sub(r.base))
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; the cover is the union of the
// children's intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		// reach is where the cover ends so far; the children are walked in
		// start order, so only the part of each beyond reach is new.
		var covered int64
		reach := s.Start
		for _, k := range kids {
			start, end := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		out[i] -= covered
	}
	return out
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]int64 {
	self := selfTimes(spans)
	out := make(map[string][]int64)
	for i := range spans {
		out[spans[i].Name] = append(out[spans[i].Name], self[i])
	}
	return out
}

func medianNs(ns []int64) float64 { return quantilesNs(ns, 0.5)[0] }

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("bench: write trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: close trace file: %w", err)
	}
	return nil
}
