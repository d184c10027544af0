package coherence

import (
	"context"

	"repro/internal/mem"
	"repro/internal/trace"
)

// MergeResults folds two shard Results of the same protocol into one:
// every count is additive over a partition of the block space. The
// protocol name is taken from a.
func MergeResults(a, b Result) Result {
	a.Counts = a.Counts.Add(b.Counts)
	a.DataRefs += b.DataRefs
	a.Misses += b.Misses
	a.Invalidations += b.Invalidations
	a.Upgrades += b.Upgrades
	a.WriteThroughs += b.WriteThroughs
	a.Updates += b.Updates
	return a
}

// RunShardedContext replays a trace stream through the named protocol with
// the block space partitioned across shards parallel simulators and merges
// the per-shard Results.
//
// Every simulator's state is keyed by block — the per-processor structures
// (RD/SRD invalidation buffers, SD/SRD store buffers, MAX credit books)
// hold per-block entries — and every shard's stream keeps the
// synchronization references, so each shard replays exactly the serial
// schedule restricted to its blocks. The merged Result is identical to
// RunWith's for every shard count; shards <= 1 streams r through one
// simulator. With shards > 1 r is collected into memory first, so each
// shard can read its own copy (see RunProtocolsShardedOpen); drivers that
// can reopen their trace call RunProtocolsShardedOpen directly.
func RunShardedContext(ctx context.Context, name string, r trace.Reader, g mem.Geometry, shards int) (Result, error) {
	procs := r.NumProcs()
	if _, err := New(name, procs, g); err != nil {
		trace.CloseReader(r) //nolint:errcheck // error path cleanup
		return Result{}, err
	}
	open := func(int) (trace.Reader, error) { return r, nil }
	if shards > 1 {
		tr, err := trace.CollectContext(ctx, r)
		if err != nil {
			return Result{}, err
		}
		open = func(int) (trace.Reader, error) { return tr.Reader(), nil }
	}
	res, err := RunProtocolsShardedOpen(ctx, open, procs, g, []string{name}, shards)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}
