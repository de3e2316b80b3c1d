package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span whose
// work it explains (0: none). A child timed on a twin runs right after its
// parent, not inside it; its duration is still the part of the parent it
// accounts for.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write saves them when the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its id.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// durations returns the duration of every span with the name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every span with the name, its duration minus the
// durations of its child spans.
func (r *recorder) selfTimes(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start-child[s.ID]))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn and records it as a span.
func (r *recorder) timed(name string, parent int, fn func()) int {
	start := time.Now()
	fn()
	return r.add(name, parent, start, time.Now())
}
