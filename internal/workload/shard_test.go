package workload

// Shard-native generation tests: for every workload, the per-shard streams
// produced directly by the generator (Workload.ShardReader) must equal the
// serial block partition of one generation — same routing, same broadcast
// order for sync/phase references — and abandoning a shard-native stream
// early must not leak the generator goroutine.

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

func drain(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader error: %v", err)
		}
		out = append(out, ref)
	}
}

// demuxRef is the serial reference partition: each data reference goes to
// shard key(ref), each synchronization and phase reference to every shard,
// in stream order.
func demuxRef(refs []trace.Ref, n int, key trace.ShardFunc) [][]trace.Ref {
	out := make([][]trace.Ref, n)
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

// TestShardReaderMatchesDemux: shard-native generation equals the serial
// block partition of one generation for every small workload.
func TestShardReaderMatchesDemux(t *testing.T) {
	g := mem.MustGeometry(64)
	const shards = 4
	key := trace.BlockShard(g, shards)
	for _, name := range SmallSet() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want := demuxRef(drain(t, w.Reader()), shards, key)
		for i := 0; i < shards; i++ {
			got := drain(t, w.ShardReader(i, key))
			if len(got) != len(want[i]) {
				t.Fatalf("%s shard %d: native %d refs, reference %d", name, i, len(got), len(want[i]))
			}
			for j := range want[i] {
				if got[j] != want[i][j] {
					t.Fatalf("%s shard %d ref %d: native %v, reference %v", name, i, j, got[j], want[i][j])
				}
			}
		}
	}
}

// TestShardReaderEarlyCloseNoLeak is the goroutine-leak regression check:
// closing a shard-native stream after a partial read must stop the backing
// generator goroutine.
func TestShardReaderEarlyCloseNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := mem.MustGeometry(64)
	key := trace.BlockShard(g, 4)
	w, err := Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 20; iter++ {
		r := w.ShardReader(iter%4, key)
		for j := 0; j < 5; j++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := trace.CloseReader(r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("generator goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
