package experiment

// Count-level oracle for the fused drivers: the cell functions Fig. 5,
// Fig. 6 and Table 1 run once per workload must return, serially and
// block-sharded, exactly the counts of one plain replay per (workload,
// block) or (workload, protocol) cell. The rendered reports are pinned
// across -j x -shards by the sweep and golden suites; this test pins the
// fused counts to the simple per-cell classifiers and simulators.

import (
	"context"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestFusedDriversMatchPerCell(t *testing.T) {
	ctx := context.Background()
	cache := NewTraceCache()
	ws, err := getWorkloads([]string{"LU32", "JACOBI"})
	if err != nil {
		t.Fatal(err)
	}
	geometries := func(blocks ...int) []mem.Geometry {
		geos := make([]mem.Geometry, len(blocks))
		for i, b := range blocks {
			geos[i] = mem.MustGeometry(b)
		}
		return geos
	}
	// cell opens one per-cell replay of w's trace.
	cell := func(t *testing.T, w *workload.Workload) trace.Reader {
		t.Helper()
		r, err := cache.Reader(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// fusedRuns calls run once per (workload, shard count) with the same
	// opener the drivers build for a block partition by g.
	fusedRuns := func(t *testing.T, g mem.Geometry, run func(w *workload.Workload, shards int, open func(int) (trace.Reader, error))) {
		t.Helper()
		for _, w := range ws {
			for _, shards := range []int{1, 8} {
				open, err := Options{}.shardSource(ctx, cache, w.Name, g, shards)
				if err != nil {
					t.Fatal(err)
				}
				run(w, shards, open)
			}
		}
	}

	t.Run("Fig5", func(t *testing.T) {
		geos := geometries(8, 64, 1024)
		fusedRuns(t, core.CoarsestGeometry(geos), func(w *workload.Workload, shards int, open func(int) (trace.Reader, error)) {
			counts, refs, err := core.FusedShardedClassify(ctx, open, w.Procs, geos, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range geos {
				want, wantRefs, err := core.Classify(cell(t, w), g)
				if err != nil {
					t.Fatal(err)
				}
				if counts[i] != want || refs != wantRefs {
					t.Errorf("%s %v shards=%d: fused %+v (%d refs), per-cell %+v (%d refs)",
						w.Name, g, shards, counts[i], refs, want, wantRefs)
				}
			}
		})
	})

	t.Run("Fig6", func(t *testing.T) {
		g := mem.MustGeometry(64)
		fusedRuns(t, g, func(w *workload.Workload, shards int, open func(int) (trace.Reader, error)) {
			results, err := coherence.RunProtocolsShardedOpen(ctx, open, w.Procs, g, coherence.Protocols, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, proto := range coherence.Protocols {
				want, err := coherence.RunWith(proto, cell(t, w), g)
				if err != nil {
					t.Fatal(err)
				}
				if results[i] != want {
					t.Errorf("%s %s shards=%d: fused %+v, per-cell %+v", w.Name, proto, shards, results[i], want)
				}
			}
		})
	})

	t.Run("Table1", func(t *testing.T) {
		geos := geometries(32, 1024)
		fusedRuns(t, core.CoarsestGeometry(geos), func(w *workload.Workload, shards int, open func(int) (trace.Reader, error)) {
			tri, err := classifyAllFused(ctx, open, w.Procs, geos, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range geos {
				ours, refs, err := core.Classify(cell(t, w), g)
				if err != nil {
					t.Fatal(err)
				}
				eggers, _, err := core.ClassifyEggers(cell(t, w), g)
				if err != nil {
					t.Fatal(err)
				}
				torr, _, err := core.ClassifyTorrellas(cell(t, w), g)
				if err != nil {
					t.Fatal(err)
				}
				if tri.ours[i] != ours || tri.eggers[i] != eggers || tri.torr[i] != torr || tri.refs != refs {
					t.Errorf("%s %v shards=%d: fused (%+v, %+v, %+v, %d refs), per-cell (%+v, %+v, %+v, %d refs)",
						w.Name, g, shards, tri.ours[i], tri.eggers[i], tri.torr[i], tri.refs, ours, eggers, torr, refs)
				}
			}
		})
	})
}
