package trace_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// FuzzShardedEquivalence lives in the external test package so it can drive
// the sharded classifiers in internal/core without an import cycle. Arbitrary byte strings are decoded into mixed data/sync/phase
// traces and the sharded pipeline is checked against the serial classifier
// for all three classification schemes. The committed seed corpus under
// testdata/fuzz/FuzzShardedEquivalence is pinned by TestFuzzSeedCorpora.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2))
	f.Add([]byte{5, 0, 9, 0, 1, 9, 6, 0, 9}, uint8(1), uint8(7))
	f.Add([]byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, procsRaw, shardsRaw uint8) {
		procs := int(procsRaw%6) + 2
		g := mem.MustGeometry(4 << (procsRaw % 4)) // 4..32-byte blocks
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

		shardGrid := []int{2, int(shardsRaw%9) + 1}
		ctx := context.Background()
		open := func(int) (trace.Reader, error) { return tr.Reader(), nil }

		want, wantRefs, err := core.Classify(tr.Reader(), g)
		if err != nil {
			t.Fatalf("ours serial: %v", err)
		}
		for _, n := range shardGrid {
			got, refs, err := core.ShardedClassifyContext(ctx, open, procs, g, n)
			if err != nil {
				t.Fatalf("ours shards=%d: %v", n, err)
			}
			if got != want || refs != wantRefs {
				t.Fatalf("ours shards=%d: got %+v (%d refs), want %+v (%d refs)",
					n, got, refs, want, wantRefs)
			}
		}

		type scheme struct {
			name    string
			serial  func(trace.Reader, mem.Geometry) (core.SharingCounts, uint64, error)
			sharded func(context.Context, func(int) (trace.Reader, error), int, mem.Geometry, int) (core.SharingCounts, uint64, error)
		}
		for _, sc := range []scheme{
			{"eggers", core.ClassifyEggers, core.ShardedClassifyEggersContext},
			{"torrellas", core.ClassifyTorrellas, core.ShardedClassifyTorrellasContext},
		} {
			want, wantRefs, err := sc.serial(tr.Reader(), g)
			if err != nil {
				t.Fatalf("%s serial: %v", sc.name, err)
			}
			for _, n := range shardGrid {
				got, refs, err := sc.sharded(ctx, open, procs, g, n)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", sc.name, n, err)
				}
				if got != want || refs != wantRefs {
					t.Fatalf("%s shards=%d: got %+v (%d refs), want %+v (%d refs)",
						sc.name, n, got, refs, want, wantRefs)
				}
			}
		}
	})
}
