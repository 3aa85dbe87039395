package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a module, taken from outside the module: the
// benchmark starts it just before the call and ends it just after. Spans of
// one script op share Op; Parent is the index of the enclosing span in the
// written file, -1 for an op's outermost span.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. A nil *recorder records nothing, which is
// how the default (untraced) pass runs the same code. One recorder belongs
// to one goroutine; concurrent load generators each get their own and are
// merged afterwards.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) begin(name string, op, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		Start: time.Since(r.epoch).Nanoseconds()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.epoch).Nanoseconds()
}

// merge appends o's spans, re-basing their parent links.
func (r *recorder) merge(o *recorder) {
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// durations returns the length in µs of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
