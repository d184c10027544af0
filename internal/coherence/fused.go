package coherence

import (
	"context"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file is the schedules' entry into the fused sweep: one replay of the
// trace (per shard) feeds a whole group of simulators at once — every
// protocol at every block size of a driver's grid row, or every ablation
// variant — so the row costs one generation instead of one per cell.
//
// The simulators are passive consumers: each keeps its own block-keyed
// schedule state and reads nothing from the drive but the reference stream
// and the group's word definitions. Those definitions depend only on the
// trace, so the group resolves them once per batch (core.Resolver) and
// every simulator's Lifetimes reads them by index; feeding N simulators
// from one stream is therefore exactly N independent replays, and each
// Finish returns precisely the per-cell result. Sharding composes the same
// way it does per cell: all schedule state is block-keyed, definitions are
// word-keyed, and sync references are broadcast, so a partition by the
// group's coarsest block drives every simulator through the serial
// schedule restricted to its blocks.

// multiSim feeds one reference stream to a group of simulators sharing one
// Resolver.
type multiSim struct {
	defs *core.Resolver
	sims []Simulator
	one  [1]trace.Ref
}

// newMultiSim builds a group from sims, which must be fresh coherence
// simulators: each is switched to the group's shared Resolver.
func newMultiSim(sims []Simulator) *multiSim {
	m := &multiSim{defs: core.NewResolver(), sims: sims}
	for _, s := range sims {
		s.(interface{ share(*core.Resolver) }).share(m.defs)
	}
	return m
}

func (m *multiSim) Ref(r trace.Ref) {
	m.one[0] = r
	m.RefBatch(m.one[:])
}

// RefBatch implements trace.BatchConsumer: the batch's definitions are
// resolved once, then each simulator replays the whole batch in turn, so
// the per-batch drive overhead is paid once per simulator, not once per
// reference.
func (m *multiSim) RefBatch(refs []trace.Ref) {
	m.defs.Resolve(refs)
	for _, s := range m.sims {
		s.RefBatch(refs)
	}
}

func (m *multiSim) finish() []Result {
	out := make([]Result, len(m.sims))
	for i, s := range m.sims {
		out[i] = s.Finish()
	}
	return out
}

// mergeResultSlices folds two shards' per-simulator results element-wise.
func mergeResultSlices(a, b []Result) []Result {
	for i := range a {
		a[i] = MergeResults(a[i], b[i])
	}
	return a
}

// ProtocolGroup returns a group constructor for RunGroupShardedOpen: one
// simulator per (geometry, protocol) pair, geometry-major.
func ProtocolGroup(procs int, geos []mem.Geometry, protos []string) func() ([]Simulator, error) {
	return func() ([]Simulator, error) {
		sims := make([]Simulator, 0, len(geos)*len(protos))
		for _, g := range geos {
			for _, name := range protos {
				sim, err := New(name, procs, g)
				if err != nil {
					return nil, err
				}
				sims = append(sims, sim)
			}
		}
		return sims, nil
	}
}

// RunGroupShardedOpen replays one fused group of simulators in one pass
// over shard-native streams: newGroup builds a fresh group of this
// package's simulators (it is called once per shard, before any reader is
// opened), each shard opens its own
// reader via open(shard) (see core.RunShardedOpen) and drives its group
// from it. The block space is partitioned by key's blocks, which must be
// at least as coarse as every simulator's geometry — a partition by the
// coarsest blocks is a valid partition at every nested block size. The
// results come back in group order and are bit-for-bit the results of
// RunWith per simulator, for every shard count; shards <= 1 is a single
// serial fused replay.
func RunGroupShardedOpen(ctx context.Context, open func(shard int) (trace.Reader, error), key mem.Geometry, shards int, newGroup func() ([]Simulator, error)) ([]Result, error) {
	n := shards
	if n < 1 {
		n = 1
	}
	groups := make([]*multiSim, n)
	for i := range groups {
		sims, err := newGroup()
		if err != nil {
			return nil, err
		}
		if len(sims) == 0 {
			return nil, nil
		}
		groups[i] = newMultiSim(sims)
	}
	return core.RunShardedOpen(ctx, open, shards, trace.BlockShard(key, shards),
		func(i int) *multiSim { return groups[i] },
		(*multiSim).finish,
		mergeResultSlices)
}

// RunProtocolsShardedOpen replays the named protocols at geometry g in one
// fused pass over shard-native streams; see RunGroupShardedOpen. The
// results are returned in protocol order.
func RunProtocolsShardedOpen(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, protos []string, shards int) ([]Result, error) {
	return RunGroupShardedOpen(ctx, open, g, shards, ProtocolGroup(procs, []mem.Geometry{g}, protos))
}
