package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// rdAllocRefs mixes loads, stores and acquires so the RD simulator exercises
// its miss, invalidation-buffer and acquire-drain paths on every pass.
func rdAllocRefs(procs, blocks int, g mem.Geometry) []trace.Ref {
	refs := make([]trace.Ref, 0, 4096)
	stride := mem.Addr(g.BlockBytes() / mem.WordBytes)
	for i := 0; i < 4096; i++ {
		p := i % procs
		a := mem.Addr(i%blocks)*stride + mem.Addr(i%4)
		switch i % 7 {
		case 0:
			refs = append(refs, trace.S(p, a))
		case 3:
			refs = append(refs, trace.A(p, 1))
		default:
			refs = append(refs, trace.L(p, a))
		}
	}
	return refs
}

// TestRDSteadyStateAllocs pins the receive-delayed simulator's hot path to
// zero steady-state allocations: the dense block table and the per-processor
// pending lists (drained with retained capacity at each acquire) must absorb
// a warmed-up pass without touching the heap.
func TestRDSteadyStateAllocs(t *testing.T) {
	g := mem.MustGeometry(64)
	refs := rdAllocRefs(4, 64, g)
	s := NewRD(4, g)
	s.RefBatch(refs) // warm up: block table + pendList capacities

	const ceiling = 0.0
	got := testing.AllocsPerRun(10, func() { s.RefBatch(refs) })
	if got > ceiling {
		t.Fatalf("RD steady state allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}

// TestFusedGroupSteadyStateAllocs pins the fused group's hot path to zero
// steady-state allocations: a warmed group of all 14 (block, schedule)
// simulators of the §7 study, with the Resolver they share, re-fed the
// same batches must not touch the heap.
func TestFusedGroupSteadyStateAllocs(t *testing.T) {
	geos := []mem.Geometry{mem.MustGeometry(64), mem.MustGeometry(1024)}
	sims, err := ProtocolGroup(4, geos, Protocols)()
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 14 {
		t.Fatalf("group holds %d simulators, want 14", len(sims))
	}
	m := newMultiSim(sims)
	refs := rdAllocRefs(4, 64, geos[0])
	for i := 0; i < len(refs); i += 4 {
		if i%3 == 0 {
			refs[i] = trace.R(int(refs[i].Proc), 1) // exercise the send-delayed flushes too
		}
	}
	batches := [][]trace.Ref{refs[:1024], refs[1024:2048], refs[2048:]}
	pass := func() {
		for _, b := range batches {
			m.RefBatch(b)
		}
	}
	pass() // warm up: block tables, arenas, buffers, resolver scratch

	const ceiling = 0.0
	if got := testing.AllocsPerRun(10, pass); got > ceiling {
		t.Fatalf("fused 14-simulator group allocates %.1f allocs per pass, ceiling %.1f", got, ceiling)
	}
}
