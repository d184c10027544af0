package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Lifetimes is the engine behind the paper's Appendix A classification,
// factored out so that any invalidation schedule can have its misses
// decomposed into cold, pure-true-sharing and pure-false-sharing misses.
//
// A lifetime is the interval between a processor's miss on a block and the
// invalidation of the copy that miss loaded (or the end of the run). The
// caller — the on-the-fly Classifier, or one of the protocol simulators —
// tells Lifetimes when misses and invalidations happen under its schedule;
// Lifetimes tracks value communication independently of that schedule.
//
// Where the paper's Appendix A pseudocode keeps one communication (C) bit
// per word and processor, this engine reads the last definition of each
// word (a logical store timestamp plus the writing processor) from a
// Resolver, shared by every engine replaying the same stream, and keeps, per
// processor and block, a communication base: the timestamp up to which the
// kept (essential) misses have already delivered values. An access is a
// communication event when it touches a word whose last definition is by
// another processor and newer than the accessor's base. The timestamped
// form is exactly the paper's §2 definition — "a value defined by a
// different processor since the last essential miss" — and unlike single
// bits it cannot conflate a value delivered by the cold miss with a later
// redefinition of the same word. It preserves the identity the paper builds
// MIN on: the MIN protocol's miss count equals the essential miss count
// under every schedule, with no false sharing.
//
// The miss is classified when the lifetime ends: the processor's first
// lifetime on a block is a cold miss (refined into PC/CTS/CFS), later
// lifetimes are PTS when essential and PFS otherwise.
type Lifetimes struct {
	geom   mem.Geometry
	procs  int
	blocks *dense.Map[lifeBlock]
	// slab holds each block's per-processor vectors in one arena cell:
	// [0:procs) commBase, [procs:2*procs) openTick.
	slab   *dense.Arena[uint64]
	counts Counts

	// defs resolves each reference's word definition and store tick; cur
	// indexes the current reference of its batch. own marks a private
	// resolver, which Begin resolves; a shared one is resolved by the
	// fused group that owns it (see Share).
	defs *Resolver
	own  bool
	cur  int

	// OnClassify, if set, is called once per classified miss with the
	// processor, the block, and the verdict, at the moment the miss's
	// lifetime closes. Used by the cross-classification analysis.
	OnClassify func(p int, b mem.Block, class Class)
}

// Class is one miss verdict of the paper's classification.
type Class uint8

// The verdicts, in Counts field order.
const (
	ClassPC Class = iota
	ClassCTS
	ClassCFS
	ClassPTS
	ClassPFS
	ClassRepl
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassPC:
		return "PC"
	case ClassCTS:
		return "CTS"
	case ClassCFS:
		return "CFS"
	case ClassPTS:
		return "PTS"
	case ClassPFS:
		return "PFS"
	case ClassRepl:
		return "REPL"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Sharing collapses a verdict into the three-way cold/true/false split used
// when comparing classifications (replacement misses count as essential
// "true" communication-free refetches and are reported separately by
// callers; Sharing maps them to cold for lack of a better bucket — the
// cross analysis never sees them because it runs on infinite caches).
func (c Class) Sharing() SharingClass {
	switch c {
	case ClassPTS:
		return SharingTrue
	case ClassPFS:
		return SharingFalse
	default:
		return SharingCold
	}
}

// SharingClass is a three-way verdict: cold, true sharing, false sharing.
type SharingClass uint8

// The three-way verdicts.
const (
	SharingCold SharingClass = iota
	SharingTrue
	SharingFalse
)

// String implements fmt.Stringer.
func (s SharingClass) String() string {
	switch s {
	case SharingCold:
		return "COLD"
	case SharingTrue:
		return "TRUE"
	case SharingFalse:
		return "FALSE"
	default:
		return fmt.Sprintf("SharingClass(%d)", uint8(s))
	}
}

// A word's last definition is packed as tick<<6 | writer (MaxProcs is 64).
// Zero means never defined.
type wordDef = uint64

// lifeBlock is one block's inline map entry: the per-processor bitmasks live
// in the probe table itself, and the per-processor vectors (commBase,
// openTick) live in one arena cell reached via state.
type lifeBlock struct {
	open     uint64 // procs with an open lifetime
	em       uint64 // procs whose open lifetime is already essential
	fr       uint64 // procs that have had a lifetime classified (FR flag)
	coldMod  uint64 // procs whose first lifetime opened on an already-modified block
	replNext uint64 // procs whose next lifetime follows a replacement (finite caches)
	replOpen uint64 // procs whose open lifetime followed a replacement
	modified bool   // some processor has stored to this block
	state    uint32 // arena cell: commBase | openTick
}

// NewLifetimes returns a Lifetimes engine for the given processor count and
// block geometry, with a private Resolver: Begin resolves each batch before
// the engine replays it. It panics if procs is out of (0, MaxProcs].
func NewLifetimes(procs int, g mem.Geometry) *Lifetimes {
	if procs <= 0 || procs > MaxProcs {
		panic(fmt.Sprintf("core: processor count %d out of range (0,%d]", procs, MaxProcs))
	}
	return &Lifetimes{
		geom:   g,
		procs:  procs,
		blocks: dense.NewMap[lifeBlock](0),
		slab:   dense.NewArena[uint64](2 * procs),
		defs:   NewResolver(),
		own:    true,
	}
}

// Share makes the engine read definitions from r instead of its private
// resolver. The caller owns r: it resolves every batch once, before any
// engine sharing r replays it (r.Resolve, then each engine's Begin and
// per-reference Next). Call Share before the first batch.
func (l *Lifetimes) Share(r *Resolver) {
	l.defs, l.own = r, false
}

// Begin starts the replay of a batch: a private resolver resolves it here,
// and the engine's cursor moves to the batch's first reference. The caller
// then calls Next after each reference, including synchronization and
// phase references, so the cursor tracks the reference being replayed.
func (l *Lifetimes) Begin(refs []trace.Ref) {
	if l.own {
		l.defs.Resolve(refs)
	}
	l.cur = 0
}

// Next advances the cursor past the current reference.
func (l *Lifetimes) Next() { l.cur++ }

// commBase returns the block's per-processor communication bases:
// commBase[p] is the tick up to which values have been delivered to p by
// its kept (essential) misses.
func (l *Lifetimes) commBase(lb *lifeBlock) []uint64 {
	return l.slab.Slice(lb.state)[:l.procs]
}

// openTick returns the block's per-processor lifetime-open ticks: the store
// tick at which p's current lifetime opened; the miss that opened it
// fetched all values defined up to then.
func (l *Lifetimes) openTick(lb *lifeBlock) []uint64 {
	return l.slab.Slice(lb.state)[l.procs:]
}

// Geometry returns the block geometry the engine was built with.
func (l *Lifetimes) Geometry() mem.Geometry { return l.geom }

// NumProcs returns the processor count.
func (l *Lifetimes) NumProcs() int { return l.procs }

func (l *Lifetimes) block(b mem.Block) *lifeBlock {
	lb, existed := l.blocks.GetOrPut(uint64(b))
	if !existed {
		lb.state = l.slab.Alloc()
	}
	return lb
}

// OpenMiss records a miss by processor p at word address a under the
// caller's schedule, opening a new lifetime at the current reference's
// store tick (after the last batch, at the tick after the whole stream).
// If p still has an open lifetime on the block (an upgrade-style miss on a
// copy that was never explicitly invalidated), the old lifetime is
// classified and closed first.
func (l *Lifetimes) OpenMiss(p int, a mem.Addr) {
	b := l.geom.BlockOf(a)
	lb := l.block(b)
	bit := uint64(1) << uint(p)
	if lb.open&bit != 0 {
		l.classify(lb, b, p, bit)
	}
	lb.open |= bit
	lb.em &^= bit
	l.openTick(lb)[p] = l.defs.tickAt(l.cur)
	lb.replOpen = lb.replOpen&^bit | lb.replNext&bit
	lb.replNext &^= bit
	if lb.fr&bit == 0 && lb.modified {
		lb.coldMod |= bit
	}
}

// Access records the current reference, a data access (load or store) by p
// to word a. If, during p's open lifetime, the word's last definition is by
// another processor and newer than everything p's essential misses have
// delivered, the lifetime becomes essential: the miss that opened it is
// needed, and it delivered every value defined up to its own open. Callers
// must have reported the miss (OpenMiss) first when the access missed;
// accesses without an open lifetime are ignored. An undefined word or the
// accessor's own definition returns before any block probe.
func (l *Lifetimes) Access(p int, a mem.Addr) {
	def := l.defs.def(l.cur)
	if def == 0 || int(def&(MaxProcs-1)) == p {
		return
	}
	lb := l.blocks.Get(uint64(l.geom.BlockOf(a)))
	if lb == nil {
		return
	}
	bit := uint64(1) << uint(p)
	// Once the lifetime is essential its base already covers its open
	// tick, so the transition cannot fire again.
	if lb.open&bit == 0 || lb.em&bit != 0 {
		return
	}
	cell := l.slab.Slice(lb.state)
	commBase := cell[:l.procs]
	if def>>6 <= commBase[p] {
		return
	}
	lb.em |= bit
	if tick := cell[l.procs+p]; tick > commBase[p] {
		commBase[p] = tick
	}
}

// RecordStore records that the current reference, a store, defined word a,
// independently of when the caller's schedule propagates the invalidation.
// The Resolver carries the definition itself; the engine only marks the
// block modified, which a word's first store is the only one that can
// change (every later store finds the block marked by the first).
func (l *Lifetimes) RecordStore(a mem.Addr) {
	if l.defs.def(l.cur) != 0 {
		return
	}
	l.block(l.geom.BlockOf(a)).modified = true
}

// CloseInvalidate ends p's lifetime on block b because the caller's schedule
// invalidated p's copy, classifying the miss that opened it. Calling it
// without an open lifetime only cancels a pending replacement mark: a block
// that was evicted and then invalidated would miss even with an infinite
// cache, so the next miss is a coherence miss, not a replacement miss.
func (l *Lifetimes) CloseInvalidate(p int, b mem.Block) {
	lb := l.blocks.Get(uint64(b))
	if lb == nil {
		return
	}
	bit := uint64(1) << uint(p)
	lb.replNext &^= bit
	if lb.open&bit == 0 {
		return
	}
	l.classify(lb, b, p, bit)
	lb.open &^= bit
	lb.em &^= bit
}

// CloseReplace ends p's lifetime on block b because p's finite cache
// evicted the copy (§8 extension). The miss that opened the lifetime is
// classified as usual; p's next miss on the block will be a replacement
// miss — essential by definition, since the program still needs the values.
// Calling it without an open lifetime is a no-op.
func (l *Lifetimes) CloseReplace(p int, b mem.Block) {
	lb := l.blocks.Get(uint64(b))
	if lb == nil {
		return
	}
	bit := uint64(1) << uint(p)
	if lb.open&bit == 0 {
		return
	}
	l.classify(lb, b, p, bit)
	lb.open &^= bit
	lb.em &^= bit
	lb.replNext |= bit
}

// classify scores the lifetime of processor p and sets its FR flag.
// The caller adjusts the open/em bits.
func (l *Lifetimes) classify(lb *lifeBlock, b mem.Block, p int, bit uint64) {
	var class Class
	switch {
	case lb.replOpen&bit != 0:
		// The previous copy was evicted, not invalidated: refetching
		// it is essential no matter what is touched. The kept miss
		// delivered every value defined up to its open. A replaced
		// copy implies an earlier lifetime, so FR is already set.
		class = ClassRepl
		l.counts.Repl++
		if commBase, tick := l.commBase(lb), l.openTick(lb)[p]; tick > commBase[p] {
			commBase[p] = tick
		}
	case lb.fr&bit == 0: // first lifetime: a cold miss
		switch {
		case lb.em&bit != 0:
			class = ClassCTS
			l.counts.CTS++
		case lb.coldMod&bit != 0:
			class = ClassCFS
			l.counts.CFS++
		default:
			class = ClassPC
			l.counts.PC++
		}
		lb.fr |= bit
		// The cold miss is essential by definition, so it is kept:
		// it delivered every value defined before it (§2). Later
		// misses can only be essential for newer values.
		if commBase, tick := l.commBase(lb), l.openTick(lb)[p]; tick > commBase[p] {
			commBase[p] = tick
		}
	case lb.em&bit != 0:
		class = ClassPTS
		l.counts.PTS++
	default:
		class = ClassPFS
		l.counts.PFS++
	}
	if l.OnClassify != nil {
		l.OnClassify(p, b, class)
	}
}

// Finish classifies all still-open lifetimes (the paper's end_of_simulation
// step) and returns the totals. The engine must not be used afterwards.
func (l *Lifetimes) Finish() Counts {
	l.blocks.Range(func(b uint64, lb *lifeBlock) {
		open := lb.open
		for open != 0 {
			p := bits.TrailingZeros64(open)
			open &^= 1 << uint(p)
			l.classify(lb, mem.Block(b), p, 1<<uint(p))
		}
		lb.open = 0
		lb.em = 0
	})
	return l.counts
}

// Snapshot returns the counts classified so far, excluding open lifetimes.
func (l *Lifetimes) Snapshot() Counts { return l.counts }
