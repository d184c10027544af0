package core

// The private-definition Lifetimes engine, kept as the oracle the
// resolver-fed engine is checked against. It is the engine as it stood
// before word definitions moved into the shared Resolver: every engine
// keeps its own per-word definition vector in each block's slab cell and
// its own store tick, written by RecordStore and read by Access, so its
// verdicts depend only on the calls it receives. The resolver-fed engine
// must return the same Counts and the same classification sequence for
// every call sequence a schedule can produce (TestLifetimesMatchOracle,
// FuzzLifetimesOracle).

import (
	"fmt"
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
)

type oracleLifetimes struct {
	geom   mem.Geometry
	procs  int
	words  int // geom.WordsPerBlock()
	blocks *dense.Map[oracleBlock]
	// slab holds each block's state vector in one arena cell:
	// [0:words) per-word definitions, [words:words+procs) commBase,
	// [words+procs:words+2*procs) openTick.
	slab   *dense.Arena[uint64]
	counts Counts
	tick   uint64 // advances on every RecordStore

	// OnClassify, if set, is called once per classified miss with the
	// processor, the block, and the verdict, at the moment the miss's
	// lifetime closes. Used by the cross-classification analysis.
	OnClassify func(p int, b mem.Block, class Class)
}

// oracleBlock is one block's inline map entry: the per-processor bitmasks
// live in the probe table itself, and the variable-size vectors (per-word
// definitions, commBase, openTick) live in one arena cell reached via state.
type oracleBlock struct {
	open     uint64 // procs with an open lifetime
	em       uint64 // procs whose open lifetime is already essential
	fr       uint64 // procs that have had a lifetime classified (FR flag)
	coldMod  uint64 // procs whose first lifetime opened on an already-modified block
	replNext uint64 // procs whose next lifetime follows a replacement (finite caches)
	replOpen uint64 // procs whose open lifetime followed a replacement
	modified bool   // some processor has stored to this block
	state    uint32 // arena cell: defs | commBase | openTick
}

// defs returns the block's per-word last-definition vector.
func (l *oracleLifetimes) defs(lb *oracleBlock) []wordDef {
	return l.slab.Slice(lb.state)[:l.words]
}

// commBase returns the block's per-processor communication bases:
// commBase[p] is the tick up to which values have been delivered to p by
// its kept (essential) misses.
func (l *oracleLifetimes) commBase(lb *oracleBlock) []uint64 {
	return l.slab.Slice(lb.state)[l.words : l.words+l.procs]
}

// openTick returns the block's per-processor lifetime-open ticks: the store
// tick at which p's current lifetime opened; the miss that opened it
// fetched all values defined up to then.
func (l *oracleLifetimes) openTick(lb *oracleBlock) []uint64 {
	return l.slab.Slice(lb.state)[l.words+l.procs : l.words+2*l.procs]
}

// newOracleLifetimes returns an oracle engine for the given processor count
// and block geometry. It panics if procs is out of (0, MaxProcs].
func newOracleLifetimes(procs int, g mem.Geometry) *oracleLifetimes {
	if procs <= 0 || procs > MaxProcs {
		panic(fmt.Sprintf("core: processor count %d out of range (0,%d]", procs, MaxProcs))
	}
	w := g.WordsPerBlock()
	return &oracleLifetimes{
		geom:   g,
		procs:  procs,
		words:  w,
		blocks: dense.NewMap[oracleBlock](0),
		slab:   dense.NewArena[uint64](w + 2*procs),
	}
}

func (l *oracleLifetimes) block(b mem.Block) *oracleBlock {
	lb, existed := l.blocks.GetOrPut(uint64(b))
	if !existed {
		lb.state = l.slab.Alloc()
	}
	return lb
}

// OpenMiss records a miss by processor p at word address a under the
// caller's schedule, opening a new lifetime. If p still has an open lifetime
// on the block (an upgrade-style miss on a copy that was never explicitly
// invalidated), the old lifetime is classified and closed first.
func (l *oracleLifetimes) OpenMiss(p int, a mem.Addr) {
	b := l.geom.BlockOf(a)
	lb := l.block(b)
	bit := uint64(1) << uint(p)
	if lb.open&bit != 0 {
		l.classify(lb, b, p, bit)
	}
	lb.open |= bit
	lb.em &^= bit
	l.openTick(lb)[p] = l.tick
	lb.replOpen = lb.replOpen&^bit | lb.replNext&bit
	lb.replNext &^= bit
	if lb.fr&bit == 0 && lb.modified {
		lb.coldMod |= bit
	}
}

// Access records a data access (load or store) by p to word a. If, during
// p's open lifetime, the word's last definition is by another processor and
// newer than everything p's essential misses have delivered, the lifetime
// becomes essential: the miss that opened it is needed, and it delivered
// every value defined up to its own open. Callers must have reported the
// miss (OpenMiss) first when the access missed; accesses without an open
// lifetime are ignored.
func (l *oracleLifetimes) Access(p int, a mem.Addr) {
	lb := l.blocks.Get(uint64(l.geom.BlockOf(a)))
	if lb == nil {
		return
	}
	bit := uint64(1) << uint(p)
	if lb.open&bit == 0 {
		return
	}
	def := l.defs(lb)[l.geom.OffsetOf(a)]
	commBase := l.commBase(lb)
	if def == 0 || int(def&(MaxProcs-1)) == p || def>>6 <= commBase[p] {
		return
	}
	lb.em |= bit
	if tick := l.openTick(lb)[p]; tick > commBase[p] {
		commBase[p] = tick
	}
}

// RecordStore records that p stored to word a, independently of when the
// caller's schedule propagates the invalidation: the word's last definition
// becomes this store.
func (l *oracleLifetimes) RecordStore(p int, a mem.Addr) {
	lb := l.block(l.geom.BlockOf(a))
	lb.modified = true
	l.tick++
	l.defs(lb)[l.geom.OffsetOf(a)] = l.tick<<6 | uint64(p)
}

// CloseInvalidate ends p's lifetime on block b because the caller's schedule
// invalidated p's copy, classifying the miss that opened it. Calling it
// without an open lifetime only cancels a pending replacement mark: a block
// that was evicted and then invalidated would miss even with an infinite
// cache, so the next miss is a coherence miss, not a replacement miss.
func (l *oracleLifetimes) CloseInvalidate(p int, b mem.Block) {
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
func (l *oracleLifetimes) CloseReplace(p int, b mem.Block) {
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
func (l *oracleLifetimes) classify(lb *oracleBlock, b mem.Block, p int, bit uint64) {
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
func (l *oracleLifetimes) Finish() Counts {
	l.blocks.Range(func(b uint64, lb *oracleBlock) {
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
func (l *oracleLifetimes) Snapshot() Counts { return l.counts }
