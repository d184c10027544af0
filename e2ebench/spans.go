package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRec is one recorded span: a name, its start and end relative to the
// recorder's creation, and its parent's ID (0 for a root).
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps the benchmark's own spans in memory until the traced run
// writes them out at the end. It is safe for concurrent use (serve clients
// record from two goroutines).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent and returns its ID. A nil recorder
// (an untraced run) records nothing.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(r.spans)
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// add records a span whose start and end are already known, in
// nanoseconds since the recorder's creation.
func (r *recorder) add(name string, parent int, startNs, endNs int64) {
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: startNs, EndNs: endNs})
	r.mu.Unlock()
}

// startNs is a span's start.
func (r *recorder) startNs(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].StartNs
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
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
