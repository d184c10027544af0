package main

// layerMetric is one per-layer metric of the traced run: the layer it
// measures, and the end-to-end metric and workload it should move (and the
// workload it should leave flat). BENCHMARK.json lists the same names,
// units and directions; the tests keep the two in step.
type layerMetric struct {
	name, unit, better string
	layer              string
	moves              string // end-to-end metric(s) on the workload(s) it should move
	flatOn             string // workload it should leave unchanged, if any
}

// Layers in pipeline order; every internal package maps to one of them or
// is listed in unmeasuredPackages.
const (
	layerGenerate = "generate"
	layerDecode   = "decode/pack"
	layerShard    = "shard-filter/merge"
	layerClassify = "classify"
	layerLife     = "lifetimes"
	layerSimulate = "simulate"
	layerCache    = "cache"
	layerDrivers  = "drivers/render"
	layerServe    = "serve"
	layerRuntime  = "runtime"
	layerOverhead = "tracing overhead"
)

// packageLayers maps every measured internal package to the layer whose
// metrics time calls into it.
var packageLayers = map[string]string{
	"workload":   layerGenerate,
	"trace":      layerGenerate, // trace.Generate; its ShardReader and Demux are timed by shard-filter/merge
	"tracestore": layerDecode,
	"core":       layerClassify, // FusedClassify*; core.Classify is the lifetimes probe
	"finite":     layerClassify,
	"dense":      layerLife, // the dense tables behind every Lifetimes probe
	"mem":        layerSimulate,
	"coherence":  layerSimulate,
	"sweep":      layerCache,
	"experiment": layerDrivers,
	"report":     layerDrivers, // table rendering inside every artifact
	"timing":     layerDrivers, // the penalty artifact's timing model
	"serve":      layerServe,
}

// unmeasuredPackages are left out on purpose, with the reason.
var unmeasuredPackages = map[string]string{
	"fault":     "fault injectors, armed only by tests and serve's chaos flag",
	"load":      "open-loop load generator, a client of serve rather than a layer of it",
	"obs":       "metrics registry and debug mux, a pure observer",
	"obs/span":  "flight recorder, a pure observer whose disabled path is pinned at 0 allocs",
	"perfbench": "the in-repo micro-benchmark harness, not on any user path",
}

var (
	protocols7 = []string{"MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX"}
	// artifactNames are the stems of the files `regen -quick` writes, in
	// regen order. The traced run fails on an artifact span outside this
	// list, and on a listed artifact it saw no span for.
	artifactNames = []string{
		"table2", "table1", "fig5", "fig6a", "fig6b", "large", "traffic", "finite",
		"compare", "penalty", "hotspots", "phases", "ablate_cu", "ablate_wbwi", "ablate_sector",
	}
)

// layerValue attaches the layer table's unit to a per-layer value; a name
// outside the table is a programming error.
func layerValue(name string, v float64) Metric {
	for _, m := range layerMetrics {
		if m.name == name {
			return Metric{v, m.unit}
		}
	}
	panic("metric not in the layer table: " + name)
}

// layerMetrics lists every per-layer metric the traced run prints.
var layerMetrics = func() []layerMetric {
	const (
		nsRef  = "ns/ref"
		lower  = "lower"
		higher = "higher"
	)
	var ms []layerMetric
	add := func(name, unit, better, layer, moves, flatOn string) {
		ms = append(ms, layerMetric{name, unit, better, layer, moves, flatOn})
	}

	genMoves := "cpu_s, wall_s, max_rss_mb on large"
	add("generate.LU200.ns_per_ref", nsRef, lower, layerGenerate, genMoves, "packed-sharded")
	add("generate.LU200.allocs_per_kref", "allocs/kref", lower, layerGenerate, genMoves, "packed-sharded")
	add("generate.MP3D10000.ns_per_ref", nsRef, lower, layerGenerate, genMoves, "packed-sharded")
	add("generate.small.ns_per_ref", nsRef, lower, layerGenerate, genMoves, "packed-sharded")

	decMoves := "wall_s, setup_s on packed-sharded"
	add("decode.LU200.ns_per_ref", nsRef, lower, layerDecode, decMoves, "large")
	add("decode.MP3D10000.ns_per_ref", nsRef, lower, layerDecode, decMoves, "large")
	add("decode.LU200.allocs_per_kref", "allocs/kref", lower, layerDecode, decMoves, "large")
	add("pack.LU200.ns_per_ref", nsRef, lower, layerDecode, decMoves, "large")
	add("pack.bytes_per_ref", "B/ref", lower, layerDecode, decMoves, "large")

	shMoves := "wall_s, cpu_s on packed-sharded"
	add("shardfilter.LU200.B1024.ns_per_ref", nsRef, lower, layerShard, shMoves, "large")
	add("shardfilter.LU200.B1024.kept_ratio", "ratio", lower, layerShard, shMoves, "large")
	add("shardfilter.LU200.B1024.segments_read_ratio", "ratio", lower, layerShard, shMoves, "large")
	add("sharded.MP3D10000.OTF.B64.ns_per_ref", nsRef, lower, layerShard, shMoves, "large")

	clMoves := "wall_s on artifacts and packed-sharded"
	add("classify.fused.MP3D1000.ns_per_ref", nsRef, lower, layerClassify, clMoves, "large")
	add("classify.fused.LU200.ns_per_ref", nsRef, lower, layerClassify, clMoves, "large")
	add("classify.eggers.MP3D1000.ns_per_ref", nsRef, lower, layerClassify, clMoves, "large")
	add("classify.torrellas.MP3D1000.ns_per_ref", nsRef, lower, layerClassify, clMoves, "large")
	add("classify.finite.MP3D1000.ns_per_ref", nsRef, lower, layerClassify, clMoves, "large")

	for _, w := range largeSet {
		for _, b := range []string{"B64", "B1024"} {
			add("lifetimes."+w+"."+b+".ns_per_ref", nsRef, lower, layerLife, "cpu_s on large; wall_s on artifacts", "")
		}
	}

	simMoves := "cpu_s, wall_s on large; the fig6/traffic share of artifacts"
	for _, p := range protocols7 {
		for _, b := range []string{"B64", "B1024"} {
			add("simulate."+p+"."+b+".ns_per_ref", nsRef, lower, layerSimulate, simMoves, "serve-jobs")
		}
	}
	add("simulate.fused7.B64.ns_per_ref", nsRef, lower, layerSimulate, simMoves, "serve-jobs")
	add("simulate.fused7.B1024.ns_per_ref", nsRef, lower, layerSimulate, simMoves, "serve-jobs")
	add("simulate.WU.B64.ns_per_ref", nsRef, lower, layerSimulate, simMoves, "serve-jobs")
	add("simulate.CU.B64.ns_per_ref", nsRef, lower, layerSimulate, simMoves, "serve-jobs")

	cacheMoves := "wall_s on artifacts"
	add("cache.misses", "count", lower, layerCache, cacheMoves, "")
	add("cache.hits", "count", higher, layerCache, cacheMoves, "")
	add("cache.streamed", "count", lower, layerCache, cacheMoves, "")

	for _, a := range artifactNames {
		add("artifact."+a+".s", "s", lower, layerDrivers, "wall_s on artifacts", "")
	}

	serveMoves := "latency_p50_ms, latency_p99_ms on serve-jobs"
	add("serve.run_ms.p50", "ms", lower, layerServe, serveMoves, "")
	add("serve.run_ms.p99", "ms", lower, layerServe, serveMoves, "")
	add("serve.wait_ms.p50", "ms", lower, layerServe, serveMoves, "")
	add("serve.wait_ms.p99", "ms", lower, layerServe, serveMoves, "")
	add("serve.attempts_per_job", "attempts/job", lower, layerServe, serveMoves, "")
	add("serve.rejected_frac", "ratio", lower, layerServe, serveMoves, "")
	add("serve.upload.run_ms.p50", "ms", lower, layerServe, serveMoves, "")

	rtMoves := "cpu_s, max_rss_mb on the traced workload"
	add("run.gc_cycles", "count", lower, layerRuntime, rtMoves, "")
	add("run.gc_pause_ms", "ms", lower, layerRuntime, rtMoves, "")
	add("run.alloc_mb", "MB", lower, layerRuntime, rtMoves, "")

	add("overhead.wall_s", "s", lower, layerOverhead, "none (traced minus untraced run of the traced workload)", "")
	add("overhead.cpu_s", "s", lower, layerOverhead, "none (traced minus untraced run of the traced workload)", "")
	return ms
}()
