package trace

import (
	"io"

	"repro/internal/mem"
)

// batchSize is the number of references shipped per channel operation by
// generated streams. Large enough to amortize channel overhead, small enough
// to keep memory per stream negligible.
const batchSize = 4096

// genBuffers bounds the batch buffers one generated stream keeps in
// circulation: the one being filled, the out channel's queue and the one
// the reader is copying from.
const genBuffers = 6

// Emitter is handed to a generator function; the function calls its methods
// to produce the trace. Emitter methods must only be called from the
// generator goroutine.
type Emitter struct {
	out  chan []Ref
	free chan []Ref // batches the reader has copied out, for reuse
	stop chan struct{}
	buf  []Ref
}

// stopPanic unwinds a generator whose reader was closed early.
type stopPanic struct{}

// Emit appends one reference to the stream.
func (e *Emitter) Emit(r Ref) {
	e.buf = append(e.buf, r)
	if len(e.buf) >= batchSize {
		e.flush()
	}
}

// Load emits a data load by proc at addr.
func (e *Emitter) Load(proc int, addr mem.Addr) { e.Emit(L(proc, addr)) }

// Store emits a data store by proc at addr.
func (e *Emitter) Store(proc int, addr mem.Addr) { e.Emit(S(proc, addr)) }

// Acquire emits a synchronization acquire by proc on addr.
func (e *Emitter) Acquire(proc int, addr mem.Addr) { e.Emit(A(proc, addr)) }

// Release emits a synchronization release by proc on addr.
func (e *Emitter) Release(proc int, addr mem.Addr) { e.Emit(R(proc, addr)) }

// Phase emits a phase-end annotation.
func (e *Emitter) Phase() { e.Emit(P()) }

func (e *Emitter) flush() {
	if len(e.buf) == 0 {
		return
	}
	select {
	case e.out <- e.buf:
	case <-e.stop:
		panic(stopPanic{})
	}
	// Refill from a batch the reader has finished with; a new one is
	// allocated only while fewer than genBuffers are in circulation.
	select {
	case b := <-e.free:
		e.buf = b[:0]
	default:
		e.buf = make([]Ref, 0, batchSize)
	}
}

// GenReader streams references produced by a generator function running in
// its own goroutine. It implements Reader and io.Closer. Closing early stops
// the generator promptly.
type GenReader struct {
	procs  int
	out    chan []Ref
	free   chan []Ref
	stop   chan struct{}
	cur    []Ref
	pos    int
	done   bool
	closed bool
}

// Generate starts fn in a goroutine and returns a Reader over the references
// it emits. fn receives an Emitter; when fn returns, the stream ends.
func Generate(procs int, fn func(*Emitter)) *GenReader {
	g := &GenReader{
		procs: procs,
		out:   make(chan []Ref, 4),
		free:  make(chan []Ref, genBuffers),
		stop:  make(chan struct{}),
	}
	go func() {
		e := &Emitter{out: g.out, free: g.free, stop: g.stop, buf: make([]Ref, 0, batchSize)}
		defer close(g.out)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopPanic); !ok {
					panic(r) // real bug in the generator: propagate
				}
			}
		}()
		fn(e)
		e.flush()
	}()
	return g
}

// NumProcs implements Reader.
func (g *GenReader) NumProcs() int { return g.procs }

// recycle hands the exhausted current batch back to the generator. Both
// Next and NextBatch copy references out, so nothing aliases it any more.
func (g *GenReader) recycle() {
	if g.cur == nil {
		return
	}
	select {
	case g.free <- g.cur:
	default:
	}
	g.cur = nil
}

// Next implements Reader.
func (g *GenReader) Next() (Ref, error) {
	if g.closed {
		return Ref{}, ErrStopped
	}
	for g.pos >= len(g.cur) {
		if g.done {
			return Ref{}, io.EOF
		}
		g.recycle()
		batch, ok := <-g.out
		if !ok {
			g.done = true
			return Ref{}, io.EOF
		}
		g.cur, g.pos = batch, 0
	}
	r := g.cur[g.pos]
	g.pos++
	return r, nil
}

// NextBatch implements BatchReader by copying out of the current generator
// batch; at most one channel receive per call.
func (g *GenReader) NextBatch(buf []Ref) (int, error) {
	if g.closed {
		return 0, ErrStopped
	}
	for g.pos >= len(g.cur) {
		if g.done {
			return 0, io.EOF
		}
		g.recycle()
		batch, ok := <-g.out
		if !ok {
			g.done = true
			return 0, io.EOF
		}
		g.cur, g.pos = batch, 0
	}
	n := copy(buf, g.cur[g.pos:])
	g.pos += n
	return n, nil
}

// Close stops the generator goroutine. Subsequent Next calls return
// ErrStopped. Closing an exhausted or already-closed reader is a no-op.
func (g *GenReader) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	close(g.stop)
	// Drain so the generator goroutine observes stop and exits.
	for range g.out { //nolint:revive // draining
	}
	return nil
}
