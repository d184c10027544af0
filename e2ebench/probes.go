package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/finite"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// The layer probes. Each drains one public entry point of a layer. Its
// input is the upstream layer's output, already materialized in memory (or
// packed on disk, for the decode and shard-filter probes), so upstream
// time is excluded.

// probeRefs bounds the LU200 input of the classify, lifetimes, pack and
// simulate probes: its first probeRefs references, so the probes stay a
// few seconds and a few tens of MB. Generate, decode and shard-filter
// drain the whole trace.
var probeRefs int64 = 4 << 20

var (
	g64   = mem.MustGeometry(64)
	g1024 = mem.MustGeometry(1024)
)

// prober runs the probes under one parent span and collects their
// metrics; the first probe error sticks.
type prober struct {
	rec     *recorder
	root    int
	metrics map[string]Metric
	err     error
}

func (p *prober) put(name string, v float64) { p.metrics[name] = layerValue(name, v) }

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// time runs fn under a span and returns its wall time and the heap
// allocations it made.
func (p *prober) time(name string, fn func() error) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := p.rec.start("probe."+name, p.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.rec.end(sp)
	runtime.ReadMemStats(&m1)
	p.fail(err)
	return d, m1.Mallocs - m0.Mallocs
}

// nsPerRef times fn over refs references and records name.
func (p *prober) nsPerRef(name string, refs int, fn func() error) {
	d, _ := p.time(name, fn)
	p.put(name, float64(d.Nanoseconds())/float64(max(refs, 1)))
}

// drain reads r to the end in batches, returning the reference count.
func drain(r trace.Reader) (int, error) {
	br, ok := r.(trace.BatchReader)
	if !ok {
		return 0, fmt.Errorf("%T is not a batch reader", r)
	}
	buf := make([]trace.Ref, 1024)
	n := 0
	for {
		k, err := br.NextBatch(buf)
		n += k
		if errors.Is(err, io.EOF) {
			return n, trace.CloseReader(r)
		}
		if err != nil {
			trace.CloseReader(r) //nolint:errcheck // the read error wins
			return n, err
		}
	}
}

func mustWorkload(name string) *workload.Workload {
	w, err := workload.Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// runProbes runs every layer probe and returns its metrics.
func runProbes(e *env, rec *recorder) (map[string]Metric, error) {
	p := &prober{rec: rec, metrics: map[string]Metric{}}
	p.root = rec.start("probes", 0)
	defer rec.end(p.root)
	ctx := context.Background()

	// Inputs, built untimed.
	lu, _, err := trace.CollectN(mustWorkload("LU200").Reader(), probeRefs)
	if err != nil {
		return nil, err
	}
	mp, err := mustWorkload("MP3D10000").Collect()
	if err != nil {
		return nil, err
	}
	mpSmall, err := mustWorkload("MP3D1000").Collect()
	if err != nil {
		return nil, err
	}
	packed := map[string]string{}
	var luPack tracestore.PackStats
	for _, name := range largeSet {
		packed[name] = filepath.Join(e.work, "probe-"+name+".umtrace")
		st, err := mustWorkload(name).PackFile(packed[name], tracestore.WriterOptions{})
		if err != nil {
			return nil, err
		}
		if name == "LU200" {
			luPack = st
		}
	}

	// generate: workload generators through trace.Generate.
	for _, name := range largeSet {
		var n int
		d, allocs := p.time("generate."+name, func() (err error) {
			n, err = drain(mustWorkload(name).Reader())
			return err
		})
		p.put("generate."+name+".ns_per_ref", float64(d.Nanoseconds())/float64(max(n, 1)))
		if name == "LU200" {
			p.put("generate.LU200.allocs_per_kref", 1000*float64(allocs)/float64(max(n, 1)))
		}
	}
	var small int
	d, _ := p.time("generate.small", func() error {
		for _, name := range workload.SmallSet() {
			n, err := drain(mustWorkload(name).Reader())
			if err != nil {
				return err
			}
			small += n
		}
		return nil
	})
	p.put("generate.small.ns_per_ref", float64(d.Nanoseconds())/float64(max(small, 1)))

	// decode / pack: tracestore readers over the packed files, and the
	// writer over the materialized LU200 prefix.
	for _, name := range largeSet {
		var n int
		d, allocs := p.time("decode."+name, func() error {
			r, err := tracestore.OpenReader(packed[name])
			if err != nil {
				return err
			}
			n, err = drain(r)
			return err
		})
		p.put("decode."+name+".ns_per_ref", float64(d.Nanoseconds())/float64(max(n, 1)))
		if name == "LU200" {
			p.put("decode.LU200.allocs_per_kref", 1000*float64(allocs)/float64(max(n, 1)))
		}
	}
	p.nsPerRef("pack.LU200.ns_per_ref", lu.Len(), func() error {
		_, err := tracestore.Pack(io.Discard, lu.Reader(), tracestore.WriterOptions{})
		return err
	})
	p.put("pack.bytes_per_ref", float64(luPack.Bytes)/float64(max(luPack.Refs, 1)))

	// shard-filter / merge: the segment-skipping shard readers of the
	// packed LU200 at 2 shards, and the demux-fed sharded simulator.
	if err := p.shardFilter(ctx, packed["LU200"]); err != nil {
		return nil, err
	}
	p.nsPerRef("sharded.MP3D10000.OTF.B64.ns_per_ref", mp.Len(), func() error {
		_, err := coherence.RunShardedContext(ctx, "OTF", mp.Reader(), g64, 2)
		return err
	})

	// classify: the fused classifiers over Fig. 5's block sweep, and the
	// finite-cache classifier.
	var fig5 []mem.Geometry
	for _, b := range experiment.Fig5Blocks {
		fig5 = append(fig5, mem.MustGeometry(b))
	}
	p.nsPerRef("classify.fused.MP3D1000.ns_per_ref", mpSmall.Len(), func() error {
		_, _, err := core.FusedClassify(mpSmall.Reader(), fig5)
		return err
	})
	p.nsPerRef("classify.fused.LU200.ns_per_ref", lu.Len(), func() error {
		_, _, err := core.FusedClassify(lu.Reader(), fig5)
		return err
	})
	p.nsPerRef("classify.eggers.MP3D1000.ns_per_ref", mpSmall.Len(), func() error {
		_, _, err := core.FusedClassifyEggers(mpSmall.Reader(), fig5)
		return err
	})
	p.nsPerRef("classify.torrellas.MP3D1000.ns_per_ref", mpSmall.Len(), func() error {
		_, _, err := core.FusedClassifyTorrellas(mpSmall.Reader(), fig5)
		return err
	})
	p.nsPerRef("classify.finite.MP3D1000.ns_per_ref", mpSmall.Len(), func() error {
		_, _, err := finite.Classify(mpSmall.Reader(), g64, finite.Config{CapacityBytes: 16 << 10, Assoc: 4})
		return err
	})

	// lifetimes: core.Classify, the Appendix-A engine alone.
	inputs := map[string]*trace.Trace{"LU200": lu, "MP3D10000": mp}
	for _, name := range largeSet {
		for _, g := range []mem.Geometry{g64, g1024} {
			t := inputs[name]
			p.nsPerRef(fmt.Sprintf("lifetimes.%s.B%d.ns_per_ref", name, g.BlockBytes()), t.Len(), func() error {
				_, _, err := core.Classify(t.Reader(), g)
				return err
			})
		}
	}

	// simulate: each schedule alone on LU200, the fused 7-schedule pass,
	// and the update protocols.
	for _, proto := range protocols7 {
		for _, g := range []mem.Geometry{g64, g1024} {
			p.nsPerRef(fmt.Sprintf("simulate.%s.B%d.ns_per_ref", proto, g.BlockBytes()), lu.Len(), func() error {
				_, err := coherence.RunWith(proto, lu.Reader(), g)
				return err
			})
		}
	}
	for _, g := range []mem.Geometry{g64, g1024} {
		p.nsPerRef(fmt.Sprintf("simulate.fused7.B%d.ns_per_ref", g.BlockBytes()), lu.Len(), func() error {
			open := func(int) (trace.Reader, error) { return lu.Reader(), nil }
			_, err := coherence.RunProtocolsShardedOpen(ctx, open, lu.Procs, g, protocols7, 1)
			return err
		})
	}
	for _, proto := range []string{"WU", "CU"} {
		p.nsPerRef("simulate."+proto+".B64.ns_per_ref", lu.Len(), func() error {
			_, err := coherence.RunWith(proto, lu.Reader(), g64)
			return err
		})
	}
	return p.metrics, p.err
}

// shardFilter drains both shards of the packed LU200 at B=1024 through the
// shard-native path (segment-skipping reader plus exact block filter) and
// records the delivered share, the segment share read, and ns per
// delivered ref.
func (p *prober) shardFilter(ctx context.Context, path string) error {
	f, err := tracestore.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const shards = 2
	segs := obs.Default.TimingCounter(obs.NameStoreSegments)
	seg0 := segs.Value()
	delivered := 0
	d, _ := p.time("shardfilter.LU200.B1024", func() error {
		for shard := 0; shard < shards; shard++ {
			r := trace.NewShardReader(f.ShardReaderContext(ctx, shard, shards, g1024), shard, trace.BlockShard(g1024, shards))
			n, err := drain(r)
			if err != nil {
				return err
			}
			delivered += n
		}
		return nil
	})
	read := segs.Value() - seg0
	p.put("shardfilter.LU200.B1024.ns_per_ref", float64(d.Nanoseconds())/float64(max(delivered, 1)))
	p.put("shardfilter.LU200.B1024.kept_ratio", float64(delivered)/float64(shards*f.NumRefs()))
	p.put("shardfilter.LU200.B1024.segments_read_ratio", float64(read)/float64(shards*len(f.Segments())))
	return nil
}
