package coherence

// Shared-resolver differential suite: a fused group whose simulators all
// read word definitions from one core.Resolver must return, simulator by
// simulator, the Result of a standalone simulator that owns a private
// resolver and is fed one reference at a time — for every schedule, both
// update extensions and every ablation variant, at every block size the
// drivers use, serially and block-sharded.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The ablation sweeps' parameters (package experiment's defaults).
var (
	cuThresholds = []int{1, 2, 4, 8, 16, 32}
	wbwiLimits   = []int{1, 2, 4, 8, 16}
	sectorSizes  = []int{4, 16, 64, 256, 1024}
)

// variantGroup returns a constructor for every simulator at geometry g: the
// seven schedules, WU and CU, and every ablation variant.
func variantGroup(procs int, g mem.Geometry) func() ([]Simulator, error) {
	return func() ([]Simulator, error) {
		sims, err := ProtocolGroup(procs, []mem.Geometry{g}, shardedProtocols())()
		if err != nil {
			return nil, err
		}
		add := func(s Simulator, err error) error {
			sims = append(sims, s)
			return err
		}
		for _, th := range cuThresholds {
			if err := add(NewCU(procs, g, th)); err != nil {
				return nil, err
			}
		}
		for _, n := range wbwiLimits {
			if err := add(NewWBWILimited(procs, g, n)); err != nil {
				return nil, err
			}
		}
		for _, sec := range sectorSizes {
			if sec > g.BlockBytes() {
				continue
			}
			if err := add(NewSectored(procs, g, sec)); err != nil {
				return nil, err
			}
		}
		return sims, nil
	}
}

// checkGroupAgainstPerCell runs the group newGroup builds fused over tr at
// every shard count and compares each simulator's Result with a standalone
// copy fed reference by reference.
func checkGroupAgainstPerCell(t *testing.T, tr *trace.Trace, key mem.Geometry, shards []int, newGroup func() ([]Simulator, error)) {
	t.Helper()
	oracle, err := newGroup()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(oracle))
	for i, sim := range oracle {
		for _, r := range tr.Refs {
			sim.Ref(r)
		}
		want[i] = sim.Finish()
	}
	open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
	for _, n := range shards {
		got, err := RunGroupShardedOpen(context.Background(), open, key, n, newGroup)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s shards=%d:\n got %+v\nwant %+v", oracle[i].Name(), n, got[i], want[i])
			}
		}
	}
}

// TestSharedResolverMatchesPerCell covers every simulator and ablation
// variant at B = 16, 64, 256 and 1024 bytes and shard counts 1, 2, 3, 8,
// plus one multi-geometry group holding every protocol at all four sizes,
// sharded by the coarsest block.
func TestSharedResolverMatchesPerCell(t *testing.T) {
	shards := []int{1, 2, 3, 8}
	blocks := []int{16, 64, 256, 1024}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 2+rng.Intn(7), 1500, 16+rng.Intn(700))
		geos := make([]mem.Geometry, len(blocks))
		for i, b := range blocks {
			geos[i] = mem.MustGeometry(b)
			t.Run(fmt.Sprintf("seed%d/B%d", seed, b), func(t *testing.T) {
				checkGroupAgainstPerCell(t, tr, geos[i], shards, variantGroup(tr.Procs, geos[i]))
			})
		}
		t.Run(fmt.Sprintf("seed%d/fused-geometries", seed), func(t *testing.T) {
			checkGroupAgainstPerCell(t, tr, core.CoarsestGeometry(geos), shards,
				ProtocolGroup(tr.Procs, geos, shardedProtocols()))
		})
	}
}

// FuzzSharedResolver fuzzes the multi-geometry fused group against the
// per-cell replays: data becomes a mixed data/sync/phase trace (three bytes
// per reference), geoRaw selects block sizes 4..128 bytes and shardsRaw the
// shard count. Seeds live under testdata/fuzz/FuzzSharedResolver.
func FuzzSharedResolver(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 1, 3, 1, 2, 5, 0, 9, 0, 0, 2, 6, 1, 9}, uint8(2), uint8(0b0101), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, procsRaw, geoRaw, shardsRaw uint8) {
		procs := int(procsRaw%6) + 2
		tr := trace.New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			p := int(data[i+1]) % procs
			addr := mem.Addr(data[i+2])
			switch data[i] % 8 {
			case 0, 1, 2:
				tr.Append(trace.L(p, addr))
			case 3, 4:
				tr.Append(trace.S(p, addr))
			case 5:
				tr.Append(trace.A(p, addr))
			case 6:
				tr.Append(trace.R(p, addr))
			default:
				tr.Append(trace.P())
			}
		}
		var geos []mem.Geometry
		for i := 0; i < 6; i++ {
			if geoRaw>>uint(i)&1 != 0 {
				geos = append(geos, mem.MustGeometry(4<<uint(i)))
			}
		}
		if len(geos) == 0 {
			geos = append(geos, mem.MustGeometry(4))
		}
		shards := []int{1, int(shardsRaw%8) + 1}
		checkGroupAgainstPerCell(t, tr, core.CoarsestGeometry(geos), shards,
			ProtocolGroup(procs, geos, shardedProtocols()))
	})
}
