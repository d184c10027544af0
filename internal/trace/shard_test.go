package trace

// ShardReader tests: the shard-native filter must reproduce, shard by
// shard, exactly the block partition of its source — data references on
// their key's shard, synchronization and phase references on every shard,
// stream order preserved — on both the Next and NextBatch paths, and its
// Close must propagate to the source.

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// collectShard drains one shard into a slice.
func collectShard(t *testing.T, r Reader) []Ref {
	t.Helper()
	var out []Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("shard error: %v", err)
		}
		out = append(out, ref)
	}
}

func randomShardTrace(rng *rand.Rand, procs, n int) *Trace {
	tr := New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(10) {
		case 0:
			tr.Append(A(p, 1000))
		case 1:
			tr.Append(R(p, 1000))
		case 2:
			tr.Append(P())
		case 3, 4:
			tr.Append(S(p, mem.Addr(rng.Intn(96))))
		default:
			tr.Append(L(p, mem.Addr(rng.Intn(96))))
		}
	}
	return tr
}

// demuxRef is the serial reference partition: each data reference goes to
// shard key(ref), each synchronization and phase reference to every shard,
// in stream order.
func demuxRef(refs []Ref, n int, key ShardFunc) [][]Ref {
	out := make([][]Ref, n)
	for _, ref := range refs {
		if ref.Kind.IsData() {
			i := key(ref)
			out[i] = append(out[i], ref)
			continue
		}
		for i := range out {
			out[i] = append(out[i], ref)
		}
	}
	return out
}

// TestShardReaderMatchesDemux is the shard-native differential: for every
// shard, a ShardReader over an independent reader of the trace yields the
// identical ref sequence to the serial reference partition.
func TestShardReaderMatchesDemux(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomShardTrace(rng, 4, 3000)
		g := mem.MustGeometry(16)
		const n = 4
		key := BlockShard(g, n)
		want := demuxRef(tr.Refs, n, key)
		for i := 0; i < n; i++ {
			got := collectShard(t, NewShardReader(tr.Reader(), i, key))
			if len(got) != len(want[i]) {
				t.Fatalf("seed %d shard %d: ShardReader %d refs, reference %d", seed, i, len(got), len(want[i]))
			}
			for j := range want[i] {
				if got[j] != want[i][j] {
					t.Fatalf("seed %d shard %d ref %d: ShardReader %v, reference %v", seed, i, j, got[j], want[i][j])
				}
			}
		}
	}
}

// TestShardReaderRoutingAndOrder checks the routing contract directly:
// each data reference lands exactly on its key's shard, every sync/phase
// reference reaches all shards, and every shard stream is an
// order-preserving subsequence of the source.
func TestShardReaderRoutingAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := randomShardTrace(rng, 4, 3000)
	g := mem.MustGeometry(16)
	const n = 5
	key := BlockShard(g, n)
	var sync int
	for _, ref := range tr.Refs {
		if !ref.Kind.IsData() {
			sync++
		}
	}

	var dataDelivered uint64
	for i := 0; i < n; i++ {
		sr := NewShardReader(tr.Reader(), i, key)
		if sr.NumProcs() != tr.Procs {
			t.Fatalf("shard %d: NumProcs %d, want %d", i, sr.NumProcs(), tr.Procs)
		}
		got := collectShard(t, sr)
		pos, gotSync := 0, 0
		for j, ref := range got {
			for pos < len(tr.Refs) && tr.Refs[pos] != ref {
				pos++
			}
			if pos == len(tr.Refs) {
				t.Fatalf("shard %d ref %d (%v) is out of stream order", i, j, ref)
			}
			pos++
			if !ref.Kind.IsData() {
				gotSync++
				continue
			}
			if k := key(ref); k != i {
				t.Fatalf("shard %d ref %d: data ref for shard %d", i, j, k)
			}
			dataDelivered++
		}
		if gotSync != sync {
			t.Fatalf("shard %d: %d sync/phase refs, want all %d", i, gotSync, sync)
		}
	}
	if dataDelivered != tr.DataRefs() {
		t.Fatalf("data refs not conserved: delivered %d, trace has %d", dataDelivered, tr.DataRefs())
	}
}

// TestShardReaderSingleShardIdentity: a 1-shard filter must reproduce the
// source stream exactly (data and sync refs alike).
func TestShardReaderSingleShardIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomShardTrace(rng, 3, 1500)
	got := collectShard(t, NewShardReader(tr.Reader(), 0, func(Ref) int { return 0 }))
	if len(got) != tr.Len() {
		t.Fatalf("got %d refs, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Refs[i] {
			t.Fatalf("ref %d: got %v, want %v", i, got[i], tr.Refs[i])
		}
	}
}

// errAfterReader yields n loads, then a non-EOF error. It records whether
// it was closed.
type errAfterReader struct {
	n      int
	pos    int
	err    error
	closed bool
}

func (r *errAfterReader) NumProcs() int { return 2 }
func (r *errAfterReader) Next() (Ref, error) {
	if r.pos >= r.n {
		return Ref{}, r.err
	}
	r.pos++
	return L(0, mem.Addr(r.pos)), nil
}
func (r *errAfterReader) Close() error {
	r.closed = true
	return nil
}

// TestShardReaderErrorPropagation: a source error must reach every shard's
// reader after its kept prefix, on both the Next and NextBatch paths, and
// closing the shard reader must close the source.
func TestShardReaderErrorPropagation(t *testing.T) {
	srcErr := errors.New("backing store exploded")
	const n = 3
	key := BlockShard(mem.MustGeometry(8), n)
	for i := 0; i < n; i++ {
		for _, batched := range []bool{false, true} {
			src := &errAfterReader{n: 2000, err: srcErr}
			sr := NewShardReader(src, i, key)
			kept := 0
			var err error
			buf := make([]Ref, 100)
			for err == nil {
				if batched {
					var cnt int
					cnt, err = sr.NextBatch(buf)
					kept += cnt
				} else if _, err = sr.Next(); err == nil {
					kept++
				}
			}
			if !errors.Is(err, srcErr) {
				t.Errorf("shard %d batched %v: got %v, want the source error", i, batched, err)
			}
			// Addresses 1..2000 at 2 words per block: 1000 blocks, split
			// evenly enough that every shard keeps a prefix.
			if kept == 0 {
				t.Errorf("shard %d batched %v: no refs before the error", i, batched)
			}
			if err := CloseReader(sr); err != nil {
				t.Fatal(err)
			}
			if !src.closed {
				t.Errorf("shard %d batched %v: source reader not closed", i, batched)
			}
		}
	}
}

// TestShardReaderBatchMatchesNext: the NextBatch path must produce the same
// subsequence as the Next path, for both batched and unbatched sources, at
// awkward buffer sizes.
func TestShardReaderBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomShardTrace(rng, 4, 2500)
	g := mem.MustGeometry(8)
	const n = 3
	key := BlockShard(g, n)

	for shard := 0; shard < n; shard++ {
		want := collectShard(t, NewShardReader(tr.Reader(), shard, key))
		for _, bufSize := range []int{1, 7, driveBatch, 5000} {
			for _, batched := range []bool{true, false} {
				var src Reader = tr.Reader()
				if !batched {
					src = unbatchedReader{src}
				}
				sr := NewShardReader(src, shard, key)
				var got []Ref
				buf := make([]Ref, bufSize)
				for {
					cnt, err := sr.NextBatch(buf)
					got = append(got, buf[:cnt]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("shard %d buf %d batched %v: %d refs, want %d",
						shard, bufSize, batched, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("shard %d buf %d batched %v ref %d: got %v, want %v",
							shard, bufSize, batched, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// unbatchedReader hides a source's NextBatch to force the per-ref path.
type unbatchedReader struct{ r Reader }

func (u unbatchedReader) NumProcs() int      { return u.r.NumProcs() }
func (u unbatchedReader) Next() (Ref, error) { return u.r.Next() }

// TestShardReaderZeroBuf: a zero-length NextBatch buffer returns (0, nil)
// without consuming the source.
func TestShardReaderZeroBuf(t *testing.T) {
	tr := New(2, L(0, 0), L(1, 1))
	sr := NewShardReader(tr.Reader(), 0, func(Ref) int { return 0 })
	if n, err := sr.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = %d, %v; want 0, nil", n, err)
	}
	if got := collectShard(t, sr); len(got) != 2 {
		t.Fatalf("stream consumed by empty NextBatch: %d refs left, want 2", len(got))
	}
}

// TestShardReaderCloseAndErrors: Close reaches the source, a source error
// surfaces, and the constructor rejects bad arguments.
func TestShardReaderCloseAndErrors(t *testing.T) {
	src := &errAfterReader{n: 10, err: io.EOF}
	sr := NewShardReader(src, 0, func(Ref) int { return 0 })
	if sr.NumProcs() != src.NumProcs() {
		t.Fatalf("NumProcs = %d, want %d", sr.NumProcs(), src.NumProcs())
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if !src.closed {
		t.Error("source not closed through ShardReader.Close")
	}

	srcErr := io.ErrUnexpectedEOF
	sr = NewShardReader(&errAfterReader{n: 3, err: srcErr}, 1, func(Ref) int { return 0 })
	var err error
	for err == nil {
		_, err = sr.Next()
	}
	if err != srcErr {
		t.Fatalf("source error not propagated: got %v", err)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil key", func() { NewShardReader(New(1).Reader(), 0, nil) })
	mustPanic("negative shard", func() { NewShardReader(New(1).Reader(), -1, func(Ref) int { return 0 }) })
}
