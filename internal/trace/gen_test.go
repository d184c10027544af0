package trace

import (
	"io"
	"testing"

	"repro/internal/mem"
)

// TestGenerateRecyclesBatches pins the generator's batch recycling:
// draining a generated stream of many batches allocates a bounded number of
// batch buffers (they circulate back through the reader), not one per
// batchSize references.
func TestGenerateRecyclesBatches(t *testing.T) {
	const batches = 200
	gen := func(e *Emitter) {
		for i := 0; i < batches*batchSize; i++ {
			e.Load(i%4, mem.Addr(i))
		}
	}
	buf := make([]Ref, 1024)
	var refs int
	drain := func() {
		g := Generate(4, gen)
		refs = 0
		for {
			n, err := g.NextBatch(buf)
			refs += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The fixed per-stream cost (goroutine, channels, reader, emitter)
	// plus at most genBuffers batches; one batch per flush would be 200+.
	const ceiling = 30
	if got := testing.AllocsPerRun(3, drain); got > ceiling {
		t.Fatalf("draining %d batches allocates %.0f times per stream, ceiling %d", batches, got, ceiling)
	}
	if refs != batches*batchSize {
		t.Fatalf("drained %d refs, want %d", refs, batches*batchSize)
	}
}

// TestGenerateRecycledStreamIntact checks that recycling never hands the
// generator a batch the reader still reads: the per-reference and batched
// drains of a multi-batch stream see every reference, in order.
func TestGenerateRecycledStreamIntact(t *testing.T) {
	const n = 5*batchSize + 17
	gen := func(e *Emitter) {
		for i := 0; i < n; i++ {
			e.Store(i%3, mem.Addr(i))
		}
	}
	g := Generate(3, gen)
	for i := 0; ; i++ {
		r, err := g.Next()
		if err == io.EOF {
			if i != n {
				t.Fatalf("Next drained %d refs, want %d", i, n)
			}
			break
		}
		if r.Addr != mem.Addr(i) || int(r.Proc) != i%3 {
			t.Fatalf("ref %d = %+v", i, r)
		}
	}
	g = Generate(3, gen)
	buf := make([]Ref, 1000)
	next := 0
	for {
		k, err := g.NextBatch(buf)
		for _, r := range buf[:k] {
			if r.Addr != mem.Addr(next) {
				t.Fatalf("batched ref %d has addr %d", next, r.Addr)
			}
			next++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if next != n {
		t.Fatalf("NextBatch drained %d refs, want %d", next, n)
	}
}
