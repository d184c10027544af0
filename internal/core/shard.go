package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/mem"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// This file implements the block-sharded pipeline: a pool of per-shard
// consumer goroutines, each driving its own shard-native stream, with a
// deterministic merge of the per-shard results.
//
// The classifiers' and simulators' state — presence masks, lifetimes,
// communication bases, per-word definitions — is keyed entirely by
// mem.Block, and their counts are additive over any partition of the block
// space. Partitioning the data references by block therefore splits one
// consumer into independent machines whose merged counts equal the serial
// run's, bit for bit, for every shard count (the shard-invariance test
// suite and FuzzShardedEquivalence enforce this). Synchronization and
// phase references are broadcast to every shard (trace.ShardReader keeps
// them in every shard's stream), so schedule-sensitive consumers see the
// same synchronization points.

// RunShardedOpen partitions the data references across shards consumers
// by key and merges their results in shard order. It is the only code that
// starts shard goroutines. Each shard opens its own reader via
// open(shard) (a fresh deterministic generation, an independent reader
// over a cached trace, or a packed trace-store reader that skips segments
// with nothing for the shard) and filters it down to its subsequence with
// a trace.ShardReader. newConsumer(i) builds shard i's consumer (called
// before any reference flows), finish extracts a shard's result, and merge
// folds two results together (it must be associative; the fold is
// left-to-right from shard 0).
//
// open(i) must yield at least shard i's subsequence under key, in stream
// order — the full trace always qualifies, and openers may pre-drop
// references other shards own (the trace-store segment skip). With
// shards <= 1 a single reader is opened via open(0) and driven inline,
// unfiltered — the exact serial path. The first shard failure cancels the
// siblings, which drain and exit before RunShardedOpen returns. The error
// priority is the caller's context error first, then the first real
// failure, then a stopped stream, then a bare cancellation.
func RunShardedOpen[C trace.Consumer, R any](
	ctx context.Context,
	open func(shard int) (trace.Reader, error),
	shards int,
	key trace.ShardFunc,
	newConsumer func(shard int) C,
	finish func(C) R,
	merge func(R, R) R,
) (R, error) {
	var zero R
	if shards <= 1 {
		r, err := open(0)
		if err != nil {
			return zero, err
		}
		c := newConsumer(0)
		if err := trace.DriveContext(ctx, r, c); err != nil {
			return zero, err
		}
		return finish(c), nil
	}

	readers := make([]trace.Reader, shards)
	for i := range readers {
		r, err := open(i)
		if err != nil {
			for _, r := range readers[:i] {
				trace.CloseReader(r) //nolint:errcheck // error-path cleanup
			}
			return zero, err
		}
		readers[i] = trace.NewShardReader(r, i, key)
	}
	consumers := make([]C, shards)
	for i := range consumers {
		consumers[i] = newConsumer(i)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each shard consumer gets its own span track (single-writer)
			// and a shard.consume span over its whole drive.
			tr := span.Acquiref("shard-consumer", i)
			defer span.Release(tr)
			defer tr.Begin(span.OpShardConsume, span.Fields{Shard: int32(i)}).End()
			if err := trace.DriveContext(span.NewContext(runCtx, tr), readers[i], consumers[i]); err != nil {
				errs[i] = err
				// First failure cancels the siblings so they stop instead
				// of classifying a replay that already failed.
				cancel()
			}
		}(i)
	}
	wg.Wait()

	if e := ctx.Err(); e != nil {
		return zero, e
	}
	// A shard canceled by a sibling's failure reports the derived context's
	// error; the sibling's own error beats it — a real failure first, then
	// a stopped stream (trace.ErrStopped).
	var stopped, canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if canceled == nil {
				canceled = err
			}
		case errors.Is(err, trace.ErrStopped):
			if stopped == nil {
				stopped = err
			}
		default:
			return zero, err
		}
	}
	if stopped != nil {
		return zero, stopped
	}
	if canceled != nil {
		return zero, canceled
	}

	acc := finish(consumers[0])
	for i := 1; i < shards; i++ {
		acc = merge(acc, finish(consumers[i]))
	}
	return acc, nil
}

// shardedCount runs one per-block classification scheme block-sharded
// over open and returns its merged counts and data-reference total.
func shardedCount[C interface {
	trace.Consumer
	Finish() K
	DataRefs() uint64
}, K interface{ Add(K) K }](ctx context.Context, open func(shard int) (trace.Reader, error), g mem.Geometry, shards int, newC func() C) (K, uint64, error) {
	type result struct {
		counts K
		refs   uint64
	}
	res, err := RunShardedOpen(ctx, open, shards, trace.BlockShard(g, shards),
		func(int) C { return newC() },
		func(c C) result { return result{counts: c.Finish(), refs: c.DataRefs()} },
		func(a, b result) result { return result{counts: a.counts.Add(b.counts), refs: a.refs + b.refs} })
	return res.counts, res.refs, err
}

// ShardedClassifyContext runs the paper's Appendix A classification with
// the block space partitioned across shards parallel classifiers, each
// reading the trace of procs processors from open (see RunShardedOpen for
// the opener contract). The counts and the data-reference count are
// identical to Classify's for every shard count; shards <= 1 is exactly
// Classify over open(0).
func ShardedClassifyContext(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, shards int) (Counts, uint64, error) {
	return shardedCount(ctx, open, g, shards, func() *Classifier { return NewClassifier(procs, g) })
}

// ShardedClassifyEggersContext runs Eggers' classification block-sharded;
// see ShardedClassifyContext.
func ShardedClassifyEggersContext(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, shards int) (SharingCounts, uint64, error) {
	return shardedCount(ctx, open, g, shards, func() *Eggers { return NewEggers(procs, g) })
}

// ShardedClassifyTorrellasContext runs Torrellas' classification
// block-sharded; see ShardedClassifyContext. Torrellas' word-level state
// shards with the blocks containing the words.
func ShardedClassifyTorrellasContext(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, shards int) (SharingCounts, uint64, error) {
	return shardedCount(ctx, open, g, shards, func() *Torrellas { return NewTorrellas(procs, g) })
}
