package core

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Resolver is the word-granular definition resolver behind Lifetimes. The
// essential-miss test (§2, Appendix A) asks whether the accessed word was
// last defined by another processor after the accessor's last essential
// miss. A word's last definition depends only on the trace — not on the
// invalidation schedule, the block size, or any ablation variant — so one
// Resolver can feed every Lifetimes engine replaying the same stream.
//
// Once per batch, Resolve records for each reference the accessed word's
// last definition before it and the store tick before it (the number of
// stores earlier in the stream). Each engine fed by the Resolver then
// replays the batch and reads those two values by index. A fused group of
// simulators resolves each batch once and shares the Resolver; a
// standalone engine owns a private one (see NewLifetimes).
type Resolver struct {
	// chunks maps a word address's chunk (addr >> chunkShift) to an arena
	// cell holding the chunk's per-word last definitions, so the
	// array-walking workloads touch one map entry per 16 consecutive words.
	chunks *dense.Map[uint32]
	words  *dense.Arena[wordDef]
	tick   uint64 // stores resolved so far
	at     []resolved
}

// resolved is one reference's view of the word-granular state.
type resolved struct {
	def  wordDef // the accessed word's last definition before the reference; 0 if none (or a sync ref)
	tick uint64  // stores before the reference
}

// The resolver's chunk size: 1<<chunkShift words per arena cell.
const chunkShift = 4

// NewResolver returns an empty Resolver.
func NewResolver() *Resolver {
	return &Resolver{
		chunks: dense.NewMap[uint32](0),
		words:  dense.NewArena[wordDef](1 << chunkShift),
	}
}

// word returns a pointer to a's last-definition slot, creating its chunk.
// The pointer is invalidated by the next call.
func (r *Resolver) word(a mem.Addr) *wordDef {
	h, existed := r.chunks.GetOrPut(uint64(a) >> chunkShift)
	if !existed {
		*h = r.words.Alloc()
	}
	return &r.words.Slice(*h)[a&(1<<chunkShift-1)]
}

// Resolve records each reference's last definition and store tick, then
// applies the batch's stores. The recorded values stay readable until the
// next Resolve; refs itself is not retained.
func (r *Resolver) Resolve(refs []trace.Ref) {
	if cap(r.at) < len(refs) {
		r.at = make([]resolved, len(refs))
	}
	r.at = r.at[:len(refs)]
	tick := r.tick
	for i, ref := range refs {
		at := &r.at[i]
		at.tick = tick
		switch ref.Kind {
		case trace.Load:
			at.def = 0
			if h := r.chunks.Get(uint64(ref.Addr) >> chunkShift); h != nil {
				at.def = r.words.Slice(*h)[ref.Addr&(1<<chunkShift-1)]
			}
		case trace.Store:
			w := r.word(ref.Addr)
			at.def = *w
			tick++
			*w = tick<<6 | uint64(ref.Proc)
		default:
			at.def = 0
		}
	}
	r.tick = tick
}

// def returns the last definition of reference i's word before it.
func (r *Resolver) def(i int) wordDef { return r.at[i].def }

// tickAt returns the store tick before reference i of the current batch;
// past the batch's end it is the tick after the whole batch.
func (r *Resolver) tickAt(i int) uint64 {
	if i < len(r.at) {
		return r.at[i].tick
	}
	return r.tick
}
