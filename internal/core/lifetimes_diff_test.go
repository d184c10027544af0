package core

// Differential suite: the resolver-fed Lifetimes engine against the
// private-definition oracle (lifetimes_oracle_test.go). A randomized
// schedule issues the calls the protocol simulators issue — misses,
// upgrade misses, immediate and delayed invalidations, refetches at
// synchronization references and after the last reference, finite-cache
// replacements, closes without a lifetime — to an engine and its oracle at
// once. Several resolver-fed engines at different geometries share one
// Resolver and replay each batch batch-major, the way a fused group does;
// one more owns a private resolver. Every engine must match its oracle's
// Counts, snapshots and classification sequence exactly.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

type classEvent struct {
	p     int
	b     mem.Block
	class Class
}

// lifePair drives one resolver-fed engine and its oracle through the same
// schedule at geometry g.
type lifePair struct {
	l         *Lifetimes
	o         *oracleLifetimes
	g         mem.Geometry
	procs     int
	rng       *rand.Rand
	present   map[mem.Block]uint64 // procs holding a copy
	pending   map[mem.Block]uint64 // delayed invalidations not yet performed
	stored    []mem.Addr           // addresses stored so far, for refetches
	got, want []classEvent
}

func newLifePair(procs int, g mem.Geometry, seed int64) *lifePair {
	lp := &lifePair{
		l:       NewLifetimes(procs, g),
		o:       newOracleLifetimes(procs, g),
		g:       g,
		procs:   procs,
		rng:     rand.New(rand.NewSource(seed)),
		present: map[mem.Block]uint64{},
		pending: map[mem.Block]uint64{},
	}
	lp.l.OnClassify = func(p int, b mem.Block, c Class) { lp.got = append(lp.got, classEvent{p, b, c}) }
	lp.o.OnClassify = func(p int, b mem.Block, c Class) { lp.want = append(lp.want, classEvent{p, b, c}) }
	return lp
}

func (lp *lifePair) openMiss(p int, a mem.Addr) {
	lp.l.OpenMiss(p, a)
	lp.o.OpenMiss(p, a)
	lp.present[lp.g.BlockOf(a)] |= 1 << uint(p)
}

func (lp *lifePair) closeInvalidate(p int, b mem.Block) {
	lp.l.CloseInvalidate(p, b)
	lp.o.CloseInvalidate(p, b)
	lp.present[b] &^= 1 << uint(p)
	lp.pending[b] &^= 1 << uint(p)
}

func (lp *lifePair) closeReplace(p int, b mem.Block) {
	lp.l.CloseReplace(p, b)
	lp.o.CloseReplace(p, b)
	lp.present[b] &^= 1 << uint(p)
	lp.pending[b] &^= 1 << uint(p)
}

// step issues the schedule's calls for the current reference r.
func (lp *lifePair) step(t *testing.T, r trace.Ref) {
	p := int(r.Proc)
	bit := uint64(1) << uint(p)
	switch r.Kind {
	case trace.Load, trace.Store:
		b := lp.g.BlockOf(r.Addr)
		switch {
		case lp.present[b]&bit == 0:
			lp.openMiss(p, r.Addr)
		case lp.rng.Intn(8) == 0:
			lp.openMiss(p, r.Addr) // upgrade miss on a copy never closed
		case lp.pending[b]&bit != 0 && lp.rng.Intn(2) == 0:
			lp.closeInvalidate(p, b) // a touched buffered invalidation
			lp.openMiss(p, r.Addr)
		}
		lp.l.Access(p, r.Addr)
		lp.o.Access(p, r.Addr)
		if r.Kind == trace.Store {
			others := lp.present[b] &^ bit
			for q := 0; q < lp.procs; q++ {
				if others&(1<<uint(q)) == 0 {
					if lp.rng.Intn(16) == 0 {
						lp.closeInvalidate(q, b) // no lifetime: cancels a replacement mark
					}
					continue
				}
				if lp.rng.Intn(2) == 0 {
					lp.closeInvalidate(q, b) // performed on the fly
				} else {
					lp.pending[b] |= 1 << uint(q) // delayed to q's next acquire
				}
			}
			lp.l.RecordStore(r.Addr)
			lp.o.RecordStore(p, r.Addr)
			lp.stored = append(lp.stored, r.Addr)
		}
		if lp.rng.Intn(10) == 0 {
			lp.closeReplace(p, b) // evicted by a finite cache
		}
	case trace.Acquire:
		var due []mem.Block
		for b, m := range lp.pending {
			if m&bit != 0 {
				due = append(due, b)
			}
		}
		slices.Sort(due)
		for _, b := range due {
			lp.closeInvalidate(p, b)
		}
	case trace.Release:
		lp.refetch(p)
	}
	if lp.rng.Intn(64) == 0 && lp.l.Snapshot() != lp.o.Snapshot() {
		t.Fatalf("%v: snapshot %+v, oracle %+v", lp.g, lp.l.Snapshot(), lp.o.Snapshot())
	}
}

// refetch models a send-delayed flush: p refetches a stored block it lost.
func (lp *lifePair) refetch(p int) {
	if len(lp.stored) == 0 || lp.rng.Intn(2) == 0 {
		return
	}
	a := lp.stored[lp.rng.Intn(len(lp.stored))]
	if lp.present[lp.g.BlockOf(a)]&(1<<uint(p)) == 0 {
		lp.openMiss(p, a)
	}
}

func (lp *lifePair) check(t *testing.T, label string) {
	t.Helper()
	for p := 0; p < lp.procs; p++ {
		lp.refetch(p) // after the last reference, like SD's final flush
	}
	got, want := lp.l.Finish(), lp.o.Finish()
	if got != want {
		t.Fatalf("%s %v: counts %+v, oracle %+v", label, lp.g, got, want)
	}
	if len(lp.got) != len(lp.want) {
		t.Fatalf("%s %v: %d classifications, oracle %d", label, lp.g, len(lp.got), len(lp.want))
	}
	for i := range lp.got {
		if lp.got[i] != lp.want[i] {
			t.Fatalf("%s %v: classification %d is %+v, oracle %+v", label, lp.g, i, lp.got[i], lp.want[i])
		}
	}
}

// runLifetimesDiff replays tr through shared-resolver engines at every
// geometry and one private-resolver engine, each against its oracle, in
// batches whose sizes rng picks.
func runLifetimesDiff(t *testing.T, tr *trace.Trace, geos []mem.Geometry, seed int64) {
	t.Helper()
	shared := NewResolver()
	pairs := make([]*lifePair, len(geos))
	for i, g := range geos {
		pairs[i] = newLifePair(tr.Procs, g, seed+int64(i))
		pairs[i].l.Share(shared)
	}
	private := newLifePair(tr.Procs, geos[0], seed-1)
	rng := rand.New(rand.NewSource(seed))
	refs := tr.Refs
	for len(refs) > 0 {
		n := 1 + rng.Intn(len(refs))
		if n > 64 {
			n = 1 + rng.Intn(64)
		}
		batch := refs[:n]
		refs = refs[n:]
		shared.Resolve(batch)
		for _, lp := range append(pairs, private) {
			lp.l.Begin(batch)
			for _, r := range batch {
				lp.step(t, r)
				lp.l.Next()
			}
		}
	}
	for _, lp := range pairs {
		lp.check(t, "shared")
	}
	private.check(t, "private")
}

// randomLifeTrace builds a mixed data/sync trace over a small address
// range, so blocks are contended at every geometry.
func randomLifeTrace(rng *rand.Rand, procs, n, words int) *trace.Trace {
	tr := trace.New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		a := mem.Addr(rng.Intn(words))
		switch k := rng.Intn(20); {
		case k < 11:
			tr.Append(trace.L(p, a))
		case k < 17:
			tr.Append(trace.S(p, a))
		case k < 18:
			tr.Append(trace.A(p, 0))
		case k < 19:
			tr.Append(trace.R(p, 0))
		default:
			tr.Append(trace.P())
		}
	}
	return tr
}

// TestLifetimesMatchOracle is the headline differential over random traces
// and schedules at B = 16, 64, 256 and 1024 bytes.
func TestLifetimesMatchOracle(t *testing.T) {
	geos := []mem.Geometry{mem.MustGeometry(16), mem.MustGeometry(64), mem.MustGeometry(256), mem.MustGeometry(1024)}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(15)
		tr := randomLifeTrace(rng, procs, 300+rng.Intn(1500), 8+rng.Intn(600))
		runLifetimesDiff(t, tr, geos, seed)
	}
}

// FuzzLifetimesOracle fuzzes the same differential: data becomes a mixed
// data/sync/phase trace (three bytes per reference, as in the trace
// package's fuzz targets), geoRaw selects the geometries, and seed drives
// the schedule and batch-size choices. Seeds live under
// testdata/fuzz/FuzzLifetimesOracle.
func FuzzLifetimesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 1, 3, 1, 2, 0, 0, 2, 5, 1, 0, 6, 0, 0}, uint8(2), uint8(0b0011), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, procsRaw, geoRaw uint8, seed int64) {
		procs := int(procsRaw%8) + 2
		tr := trace.New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			p := int(data[i+1]) % procs
			addr := mem.Addr(data[i+2])
			switch data[i] % 8 {
			case 0, 1, 2:
				tr.Append(trace.L(p, addr))
			case 3, 4:
				tr.Append(trace.S(p, addr))
			case 5:
				tr.Append(trace.A(p, addr))
			case 6:
				tr.Append(trace.R(p, addr))
			default:
				tr.Append(trace.P())
			}
		}
		// Bits 0..5 of geoRaw select block sizes 4..128 bytes.
		var geos []mem.Geometry
		for i := 0; i < 6; i++ {
			if geoRaw>>uint(i)&1 != 0 {
				geos = append(geos, mem.MustGeometry(4<<uint(i)))
			}
		}
		if len(geos) == 0 {
			geos = append(geos, mem.MustGeometry(4))
		}
		runLifetimesDiff(t, tr, geos, seed)
	})
}
