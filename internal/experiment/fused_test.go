package experiment

// Count-level oracle for the fused drivers: the cell functions Fig. 5,
// Fig. 6, Table 1, the §7 study, the traffic study and the ablations run
// once per workload must return, serially and block-sharded, exactly the
// counts of one plain replay per (workload, block), (workload, protocol) or
// (workload, variant) cell. The rendered reports are pinned
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

	// perCell replays one simulator per cell over its own reader: the
	// per-cell oracle for the fused coherence drivers.
	perCell := func(t *testing.T, w *workload.Workload, sim coherence.Simulator) coherence.Result {
		t.Helper()
		if err := trace.Drive(cell(t, w), sim); err != nil {
			t.Fatal(err)
		}
		return sim.Finish()
	}
	// protocolGrid checks the (block, protocol) grid large and traffic run
	// through runFused against RunWith per cell.
	protocolGrid := func(t *testing.T, protos []string, source sourceFunc) {
		geos := geometries(64, 1024)
		for _, shards := range []int{1, 8} {
			o := Options{Cache: cache, Parallelism: 1, Shards: shards}
			cells, fails, err := runFused(o, ws, core.CoarsestGeometry(geos), len(geos)*len(protos), source,
				func(w *workload.Workload) func() ([]coherence.Simulator, error) {
					return coherence.ProtocolGroup(w.Procs, geos, protos)
				})
			if err != nil || fails != nil {
				t.Fatal(err, fails)
			}
			i := 0
			for _, w := range ws {
				for _, g := range geos {
					for _, proto := range protos {
						want, err := coherence.RunWith(proto, cell(t, w), g)
						if err != nil {
							t.Fatal(err)
						}
						if cells[i] != want {
							t.Errorf("%s %v %s shards=%d: fused %+v, per-cell %+v", w.Name, g, proto, shards, cells[i], want)
						}
						i++
					}
				}
			}
		}
	}

	t.Run("Large", func(t *testing.T) {
		protocolGrid(t, coherence.Protocols, Options.onePassSource)
	})

	t.Run("Traffic", func(t *testing.T) {
		protocolGrid(t, append(append([]string{}, coherence.Protocols...), coherence.ExtensionProtocols...), Options.shardSource)
	})

	t.Run("Ablate", func(t *testing.T) {
		g := mem.MustGeometry(1024)
		// Every variant of the three ablations at one block size.
		type variant func(procs int) (coherence.Simulator, error)
		var variants []variant
		for _, th := range CompetitiveThresholds {
			variants = append(variants, func(procs int) (coherence.Simulator, error) { return coherence.NewCU(procs, g, th) })
		}
		for _, n := range BufferSizes {
			if n == 0 {
				variants = append(variants, func(procs int) (coherence.Simulator, error) { return coherence.NewWBWI(procs, g), nil })
				continue
			}
			variants = append(variants, func(procs int) (coherence.Simulator, error) { return coherence.NewWBWILimited(procs, g, n) })
		}
		for _, sec := range SectorSizes {
			variants = append(variants, func(procs int) (coherence.Simulator, error) { return coherence.NewSectored(procs, g, sec) })
		}
		for _, shards := range []int{1, 8} {
			o := Options{Cache: cache, Parallelism: 1, Shards: shards}
			cells, fails, err := runVariants(o, ws, g, len(variants), func(w *workload.Workload, j int) (coherence.Simulator, error) {
				return variants[j](w.Procs)
			})
			if err != nil || fails != nil {
				t.Fatal(err, fails)
			}
			for wi, w := range ws {
				for j, v := range variants {
					sim, err := v(w.Procs)
					if err != nil {
						t.Fatal(err)
					}
					want := perCell(t, w, sim)
					if got := cells[wi*len(variants)+j]; got != want {
						t.Errorf("%s %s shards=%d: fused %+v, per-cell %+v", w.Name, want.Protocol, shards, got, want)
					}
				}
			}
		}
	})
}
