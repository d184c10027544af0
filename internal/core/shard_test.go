package core

// The shard-invariance differential suite for the classifiers: the
// block-sharded pipeline must produce byte-identical counts to the serial
// classifier for every shard count, every classification scheme, and every
// partition of the block space — the property that makes the sharded
// pipeline a drop-in replacement for the hot path.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// shardCounts is the shard-count grid the differential suite sweeps,
// bracketing the interesting cases: serial (1), tiny pools, a typical pool
// (8), and more shards than blocks in most of the random traces (64).
var shardCounts = []int{1, 2, 3, 8, 64}

// quickConf bounds a differential property's iteration count so the full
// {scheme x shards x geometry} sweep stays fast.
func quickConf(n int) *quick.Config { return &quick.Config{MaxCount: n} }

// openTrace returns an opener that hands every shard its own reader over
// the in-memory trace.
func openTrace(tr *trace.Trace) func(int) (trace.Reader, error) {
	return func(int) (trace.Reader, error) { return tr.Reader(), nil }
}

// randomMixedTrace interleaves contended data references with sync and
// phase references so the broadcast path of the shard filter is exercised.
func randomMixedTrace(rng *rand.Rand, procs, n, addrRange int) *trace.Trace {
	tr := trace.New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(12) {
		case 0:
			tr.Append(trace.A(p, mem.Addr(addrRange+rng.Intn(4))))
		case 1:
			tr.Append(trace.R(p, mem.Addr(addrRange+rng.Intn(4))))
		case 2:
			tr.Append(trace.P())
		case 3, 4, 5:
			tr.Append(trace.S(p, mem.Addr(rng.Intn(addrRange))))
		default:
			tr.Append(trace.L(p, mem.Addr(rng.Intn(addrRange))))
		}
	}
	return tr
}

func shardGeometries() []mem.Geometry {
	return []mem.Geometry{
		mem.MustGeometry(4),
		mem.MustGeometry(16),
		mem.MustGeometry(64),
	}
}

// TestShardedClassifyMatchesSerial is the headline differential property:
// the Appendix A classification sharded N ways equals the serial run in
// every one of the five classes, for N in {1, 2, 3, 8, 64}.
func TestShardedClassifyMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := Classify(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := ShardedClassifyContext(context.Background(), openTrace(tr), tr.Procs, g, n)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v (%d refs), want %+v (%d refs)",
						g, n, got, refs, want, wantRefs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedEggersMatchesSerial checks Eggers' scheme shard-invariant.
func TestShardedEggersMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := ClassifyEggers(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := ShardedClassifyEggersContext(context.Background(), openTrace(tr), tr.Procs, g, n)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v, want %+v", g, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTorrellasMatchesSerial checks Torrellas' scheme, whose
// word-level state must shard with the blocks containing the words.
func TestShardedTorrellasMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := ClassifyTorrellas(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := ShardedClassifyTorrellasContext(context.Background(), openTrace(tr), tr.Procs, g, n)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v, want %+v", g, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// allClassesTrace produces every one of the five miss classes at B=8
// (2 words per block): the differential properties above then cannot pass
// vacuously on traces missing a class.
func allClassesTrace() *trace.Trace {
	return trace.New(3,
		// P0 loads block 0 untouched: PC when the lifetime closes.
		trace.L(0, 0),
		// P1 stores word 1 of block 0, invalidating P0 (classifies P0's
		// PC), then P0 misses again and reads the new value: PTS.
		trace.S(1, 1),
		trace.L(0, 1),
		// P1 stores word 0; P0's copy dies again; P0 refetches but only
		// touches word 1, which P1 did not redefine: PFS.
		trace.S(1, 0),
		trace.L(0, 1),
		trace.S(1, 0),
		// P2's first miss lands on a modified block and reads a
		// communicated word: CTS.
		trace.L(2, 0),
		// Block 2 (words 4-5): P1 modifies it first, then P2's cold miss
		// touches only the word P1 never wrote: CFS.
		trace.S(1, 4),
		trace.L(2, 5),
	)
}

// TestShardedCoversAllFiveClasses pins that the all-classes trace indeed
// produces PC, CTS, CFS, PTS and PFS, and that every shard count
// reproduces the same nonzero split.
func TestShardedCoversAllFiveClasses(t *testing.T) {
	g := mem.MustGeometry(8)
	tr := allClassesTrace()
	want, refs, err := Classify(tr.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	if want.PC == 0 || want.CTS == 0 || want.CFS == 0 || want.PTS == 0 || want.PFS == 0 {
		t.Fatalf("trace does not cover all five classes: %+v", want)
	}
	for _, n := range shardCounts {
		got, gotRefs, err := ShardedClassifyContext(context.Background(), openTrace(tr), tr.Procs, g, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotRefs != refs {
			t.Errorf("shards=%d: got %+v, want %+v", n, got, want)
		}
	}
}

// TestArbitraryBlockPartitionSumsToWhole is the merge-soundness property in
// its strongest form: not just the canonical block%N partition but ANY
// partition of the block space — here a seeded random assignment — must sum
// to the whole-trace counts.
func TestArbitraryBlockPartitionSumsToWhole(t *testing.T) {
	f := func(seed int64, keySeed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 5, 600, 48)
		g := mem.MustGeometry(16)
		want, wantRefs, err := Classify(tr.Reader(), g)
		if err != nil {
			t.Log(err)
			return false
		}
		const n = 7
		// A random but deterministic block->shard assignment.
		key := func(r trace.Ref) int {
			h := uint64(g.BlockOf(r.Addr))*0x9e3779b97f4a7c15 + uint64(keySeed)
			return int((h >> 33) % n)
		}
		procs := tr.Procs
		type res struct {
			counts Counts
			refs   uint64
		}
		got, err := RunShardedOpen(context.Background(), openTrace(tr), n, key,
			func(int) *Classifier { return NewClassifier(procs, g) },
			func(c *Classifier) res { return res{c.Finish(), c.DataRefs()} },
			func(a, b res) res { return res{a.counts.Add(b.counts), a.refs + b.refs} })
		if err != nil {
			t.Log(err)
			return false
		}
		if got.counts != want || got.refs != wantRefs {
			t.Logf("random partition: got %+v (%d refs), want %+v (%d refs)",
				got.counts, got.refs, want, wantRefs)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConf(20)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMergeInvariants checks the paper's accounting identities on
// the MERGED counts — essential = cold + PTS, essential <= total — and
// that the shard filter conserves the data-reference denominator exactly.
func TestShardedMergeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 700, 56)
		g := mem.MustGeometry(32)
		for _, n := range shardCounts {
			counts, refs, err := ShardedClassifyContext(context.Background(), openTrace(tr), tr.Procs, g, n)
			if err != nil {
				t.Log(err)
				return false
			}
			if counts.Essential() != counts.Cold()+counts.PTS {
				t.Logf("shards=%d: essential %d != cold %d + PTS %d",
					n, counts.Essential(), counts.Cold(), counts.PTS)
				return false
			}
			if counts.Essential() > counts.Total() {
				t.Logf("shards=%d: essential %d > total %d", n, counts.Essential(), counts.Total())
				return false
			}
			if refs != tr.DataRefs() {
				t.Logf("shards=%d: sharding lost data refs: %d of %d", n, refs, tr.DataRefs())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(15)); err != nil {
		t.Fatal(err)
	}
}

// endlessTrace generates data references forever (plus an acquire every
// 256 references) until its reader is closed: a shard reading it only
// stops through cancellation.
func endlessTrace() trace.Reader {
	return trace.Generate(2, func(e *trace.Emitter) {
		for i := 0; ; i++ {
			e.Load(i%2, mem.Addr(i%4096))
			if i%256 == 255 {
				e.Acquire(0, 1<<20)
			}
		}
	})
}

// refCount is the consumer of the RunShardedOpen teardown tests.
type refCount struct{ n uint64 }

func (c *refCount) Ref(trace.Ref) { c.n++ }

// runCounting drives open through RunShardedOpen with counting consumers.
func runCounting(ctx context.Context, open func(int) (trace.Reader, error), shards int) (uint64, error) {
	return RunShardedOpen(ctx, open, shards, trace.BlockShard(mem.MustGeometry(64), shards),
		func(int) *refCount { return &refCount{} },
		func(c *refCount) uint64 { return c.n },
		func(a, b uint64) uint64 { return a + b })
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating scheduler lag.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunShardedOpenFailureCancelsSiblings: one shard's stream fails while
// its siblings read endless generators. The failure must cancel the
// siblings (otherwise the run never returns), come back as the run's
// error, and leave no generator or shard goroutine behind.
func TestRunShardedOpenFailureCancelsSiblings(t *testing.T) {
	base := runtime.NumGoroutine()
	streamErr := errors.New("backing store exploded")
	for iter := 0; iter < 10; iter++ {
		const shards = 4
		failing := iter % shards
		open := func(i int) (trace.Reader, error) {
			if i == failing {
				return &failAfterReader{n: 300, err: streamErr}, nil
			}
			return endlessTrace(), nil
		}
		done := make(chan error, 1)
		go func() {
			_, err := runCounting(context.Background(), open, shards)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, streamErr) {
				t.Fatalf("iter %d: err = %v, want the failing shard's error", iter, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: a shard failure did not cancel its siblings", iter)
		}
	}
	waitForGoroutines(t, base)
}

// TestRunShardedOpenErrorPriority pins the error order: the caller's
// context error beats a real shard failure, and a shard's own failure or
// stopped stream beats the cancellation its siblings observe. The siblings
// read endless generators, so they end only through that cancellation.
func TestRunShardedOpenErrorPriority(t *testing.T) {
	realErr := errors.New("disk on fire")
	for _, own := range []error{realErr, trace.ErrStopped} {
		open := func(i int) (trace.Reader, error) {
			if i == 2 {
				return &failAfterReader{n: 10, err: own}, nil
			}
			return endlessTrace(), nil
		}
		if _, err := runCounting(context.Background(), open, 4); !errors.Is(err, own) {
			t.Errorf("shard error %v lost to its siblings' cancellation: got %v", own, err)
		}
	}

	// A canceled caller context wins over a real failure.
	ctx, cancel := context.WithCancel(context.Background())
	cancelling := func(i int) (trace.Reader, error) {
		if i == 3 {
			cancel()
		}
		return &failAfterReader{n: 10, err: realErr}, nil
	}
	if _, err := runCounting(ctx, cancelling, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("caller cancellation lost to a shard failure: %v", err)
	}
}

// TestRunShardedOpenCancelNoLeak cancels runs over endless generators at
// randomized points: every run must return the context error and every
// generator and shard goroutine must exit.
func TestRunShardedOpenCancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 10; iter++ {
		for _, shards := range []int{1, 3, 8} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3000))*time.Microsecond)
			open := func(int) (trace.Reader, error) { return endlessTrace(), nil }
			_, err := runCounting(ctx, open, shards)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("iter %d shards=%d: err = %v, want the context error", iter, shards, err)
			}
		}
	}
	waitForGoroutines(t, base)
}
