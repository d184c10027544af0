package trace_test

// The randomized cancel-mid-replay race suite over every worker/shard
// combination the CLI exposes, driven through core.RunShardedOpen (the
// external test package avoids the import cycle). Run it under -race: the
// interesting failures are ordering windows in the shard teardown, not
// deterministic logic.

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// nopConsumer counts references and does nothing else.
type nopConsumer struct{ refs uint64 }

func (c *nopConsumer) Ref(trace.Ref)             { c.refs++ }
func (c *nopConsumer) RefBatch(refs []trace.Ref) { c.refs += uint64(len(refs)) }

// closeTracker records whether its reader was closed.
type closeTracker struct {
	trace.Reader
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return trace.CloseReader(c.Reader)
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

// TestCancelMidReplayRace is the cancellation race suite: for every
// worker/shard combination, cancel the shared context at a randomized point
// while the workers replay through sharded runs, and require that every
// path winds down — each worker returns either a clean result or the
// context error (never ErrStopped, never a hang), every opened source
// reader is closed, and no goroutine outlives the run.
func TestCancelMidReplayRace(t *testing.T) {
	tr := trace.CancelTestTrace(32 << 10)
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 8} {
			name := ""
			switch {
			case workers == 1 && shards == 1:
				name = "w1_s1"
			case workers == 1:
				name = "w1_s8"
			case shards == 1:
				name = "w8_s1"
			default:
				name = "w8_s8"
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				for trial := 0; trial < 6; trial++ {
					delay := time.Duration(rng.Intn(2000)) * time.Microsecond
					runCancelTrial(t, tr, workers, shards, delay)
				}
				waitForGoroutines(t, base)
			})
		}
	}
}

// runCancelTrial replays tr through `workers` concurrent sharded runs of
// `shards` shards each, cancelling the shared context after delay.
func runCancelTrial(t *testing.T, tr *trace.Trace, workers, shards int, delay time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(delay, cancel)
	defer timer.Stop()

	key := trace.BlockShard(mem.MustGeometry(64), shards)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// RunShardedOpen opens every shard on the calling goroutine and
			// joins every shard before returning, so srcs needs no lock.
			var srcs []*closeTracker
			open := func(int) (trace.Reader, error) {
				src := &closeTracker{Reader: tr.Reader()}
				srcs = append(srcs, src)
				return src, nil
			}
			_, errs[w] = core.RunShardedOpen(ctx, open, shards, key,
				func(int) *nopConsumer { return &nopConsumer{} },
				func(c *nopConsumer) uint64 { return c.refs },
				func(a, b uint64) uint64 { return a + b })
			for _, src := range srcs {
				if !src.closed {
					errs[w] = errors.New("source reader left open")
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("replay deadlocked after cancel\n%s", buf[:runtime.Stack(buf, true)])
	}
	for w, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		if err == io.EOF {
			t.Errorf("worker %d: raw io.EOF escaped the run", w)
			continue
		}
		t.Errorf("worker %d: err = %v, want nil or context.Canceled", w, err)
	}
}
