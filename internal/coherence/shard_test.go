package coherence

// Shard-invariance differential suite for the invalidation schedules: the
// block-sharded pipeline must reproduce the serial Result — misses,
// decomposition, invalidations, upgrades, write-throughs and updates —
// bit for bit for every schedule, including the delayed ones whose drain
// points (acquire/release) reach every shard's stream.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

var shardCounts = []int{1, 2, 3, 8, 64}

// runSharded replays tr through the named protocol on n shards, each shard
// reading its own reader over the in-memory trace.
func runSharded(name string, tr *trace.Trace, g mem.Geometry, n int) (Result, error) {
	open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
	res, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, g, []string{name}, n)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// shardedProtocols is every schedule the differential suite must cover:
// the paper's seven plus the update-based extensions.
func shardedProtocols() []string {
	return append(append([]string{}, Protocols...), ExtensionProtocols...)
}

// TestShardedProtocolMatchesSerial checks, for every schedule and shard
// count, that the merged sharded Result equals the serial RunWith Result
// in every field.
func TestShardedProtocolMatchesSerial(t *testing.T) {
	for _, name := range shardedProtocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tr := randomSyncTrace(rng, 6, 700, 56)
				for _, g := range []mem.Geometry{mem.MustGeometry(8), mem.MustGeometry(64)} {
					want, err := RunWith(name, tr.Reader(), g)
					if err != nil {
						t.Log(err)
						return false
					}
					for _, n := range shardCounts {
						got, err := runSharded(name, tr, g, n)
						if err != nil {
							t.Log(err)
							return false
						}
						if got != want {
							t.Logf("%s %v shards=%d:\n got %+v\nwant %+v", name, g, n, got, want)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedProtocolCrossChecks re-asserts the paper's structural
// identities on MERGED results: MIN equals the essential count with no
// false sharing, OTF's decomposition equals the Appendix-A classification,
// and each protocol's internal miss counter matches its classified total.
// It runs through RunShardedContext, which collects a single stream before
// sharding it.
func TestShardedProtocolCrossChecks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 5, 600, 40)
		g := mem.MustGeometry(32)
		const n = 8
		minRes, err := RunShardedContext(context.Background(), "MIN", tr.Reader(), g, n)
		if err != nil {
			t.Log(err)
			return false
		}
		otfRes, err := RunShardedContext(context.Background(), "OTF", tr.Reader(), g, n)
		if err != nil {
			t.Log(err)
			return false
		}
		if minRes.Counts.PFS != 0 {
			t.Logf("sharded MIN has false sharing: %+v", minRes.Counts)
			return false
		}
		if minRes.Misses != otfRes.Counts.Essential() {
			t.Logf("sharded MIN misses %d != essential %d", minRes.Misses, otfRes.Counts.Essential())
			return false
		}
		for _, res := range []Result{minRes, otfRes} {
			if res.Misses != res.Counts.Total() {
				t.Logf("%s: miss counter %d != classified total %d", res.Protocol, res.Misses, res.Counts.Total())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// closeTracker records whether its reader was closed.
type closeTracker struct {
	trace.Reader
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return nil
}

// TestShardedUnknownProtocol pins the validation path: an unknown name must
// fail before any replay starts and must still close the source reader.
func TestShardedUnknownProtocol(t *testing.T) {
	src := &closeTracker{Reader: trace.New(2, trace.L(0, 0)).Reader()}
	if _, err := RunShardedContext(context.Background(), "BOGUS", src, mem.MustGeometry(16), 4); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
	if !src.closed {
		t.Error("source reader left open after the validation error")
	}
}
