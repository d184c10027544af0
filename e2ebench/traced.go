package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// probeServeJobs is the size of the short serve loop the traced run of a
// non-serve workload uses for the serve metrics.
var probeServeJobs = 200

// tracing arms one unit's instrumentation; a nil *tracing is a plain
// unit. Every armed unit takes the runtime's figures: the Go runtime's GC
// trace (GODEBUG=gctrace=1) of each CLI process, or the harness's own
// MemStats around the in-process serve loop. With rec set the unit is also
// traced: each CLI invocation writes the CLI's own span log (-span-log)
// and metrics report (-metrics), read back when it exits, and the serve
// loop records the benchmark's spans around every job.
type tracing struct {
	rec   *recorder
	dir   string // where the CLI's span logs and metrics reports go
	calls int

	// What the unit reported, summed over its invocations.
	artifacts map[string]time.Duration // regen artifact file -> render time
	cache     [3]uint64                // sweep trace-cache misses, hits, streamed
	gcCycles  int
	gcPauseMs float64
	allocMB   float64
}

func newTracing(rec *recorder, dir string) (*tracing, error) {
	return &tracing{rec: rec, dir: dir, artifacts: map[string]time.Duration{}}, os.MkdirAll(dir, 0o755)
}

func (tr *tracing) recorder() *recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// cacheCounters are the sweep trace-cache counters, in tracing.cache order.
var cacheCounters = []string{obs.NameCacheMisses, obs.NameCacheHits, obs.NameCacheStreamed}

// cliCall is one traced CLI invocation: its span and its output files.
type cliCall struct {
	span             int
	spanLog, metrics string
}

// arm opens the invocation's span and names its output files.
func (tr *tracing) arm(subcommand string) *cliCall {
	tr.calls++
	base := filepath.Join(tr.dir, fmt.Sprintf("%02d-%s", tr.calls, subcommand))
	return &cliCall{
		span:    tr.rec.start("cli."+subcommand, 0),
		spanLog: base + ".spans.jsonl",
		metrics: base + ".metrics.json",
	}
}

// collect reads back what a CLI process reported: its GC trace and, for a
// traced invocation c, its driver and artifact spans (recorded as children
// of the invocation's span) and its trace-cache counters.
func (tr *tracing) collect(c *cliCall, stderr string) error {
	gc := parseGCTrace(stderr)
	tr.gcCycles += gc.cycles
	tr.gcPauseMs += gc.pauseMs
	tr.allocMB += gc.allocMB
	if c == nil {
		return nil
	}
	tr.rec.end(c.span)
	if err := tr.readSpanLog(c); err != nil {
		return err
	}
	b, err := os.ReadFile(c.metrics)
	if err != nil {
		return err
	}
	var rep obs.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("%s: %w", c.metrics, err)
	}
	for i, name := range cacheCounters {
		tr.cache[i] += rep.Deterministic.Counters[name]
	}
	return nil
}

// cliSpan is the part of a span-log line (uselessmiss/spans/v1) the
// benchmark reads.
type cliSpan struct {
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   struct {
		Note string `json:"note"`
	} `json:"attrs"`
}

// readSpanLog records the CLI's experiment-driver and regen-artifact
// spans under the invocation's span, offset by the invocation's start, and
// keeps each artifact's render time.
func (tr *tracing) readSpanLog(c *cliCall) error {
	f, err := os.Open(c.spanLog)
	if err != nil {
		return err
	}
	defer f.Close()
	offset := tr.rec.startNs(c.span)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var sp cliSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("%s: %w", c.spanLog, err)
		}
		switch sp.Op {
		case "experiment", "regen.artifact":
			tr.rec.add(sp.Op+"."+sp.Attrs.Note, c.span, offset+sp.StartNs, offset+sp.StartNs+sp.DurNs)
			if sp.Op == "regen.artifact" {
				tr.artifacts[sp.Attrs.Note] = time.Duration(sp.DurNs)
			}
		}
	}
	return sc.Err()
}

// inProcess starts taking the runtime and trace-cache figures of work done
// in the harness process (the serve loop); the returned func stops and
// adds them to tr. A nil tr takes nothing.
func (tr *tracing) inProcess() (stop func()) {
	if tr == nil {
		return func() {}
	}
	var m0, m1 runtime.MemStats
	var c0 [3]uint64
	for i, name := range cacheCounters {
		c0[i] = obs.Default.Counter(name).Value()
	}
	runtime.ReadMemStats(&m0)
	return func() {
		runtime.ReadMemStats(&m1)
		for i, name := range cacheCounters {
			tr.cache[i] += obs.Default.Counter(name).Value() - c0[i]
		}
		tr.gcCycles += int(m1.NumGC - m0.NumGC)
		tr.gcPauseMs += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		tr.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
}

// gcStats summarizes a process's GODEBUG=gctrace=1 lines.
type gcStats struct {
	cycles  int
	pauseMs float64 // the two stop-the-world phases of every cycle
	// allocMB is the heap allocated up to the last cycle: each cycle's
	// heap size at mark end minus the live heap the previous cycle left,
	// in the trace's whole MB.
	allocMB float64
}

// gcLine matches one gctrace line: the stop-the-world sweep-termination
// and mark-termination clock times, and the heap at mark start, at mark
// end and live after marking.
var gcLine = regexp.MustCompile(`(?m)^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock, [^,]+, (\d+)->(\d+)->(\d+) MB`)

func parseGCTrace(stderr string) gcStats {
	var g gcStats
	live := 0.0
	for _, m := range gcLine.FindAllStringSubmatch(stderr, -1) {
		f := make([]float64, len(m)-1)
		for i, v := range m[1:] {
			f[i], _ = strconv.ParseFloat(v, 64)
		}
		g.cycles++
		g.pauseMs += f[0] + f[1]
		g.allocMB += f[3] - live
		live = f[4]
	}
	return g
}

// withoutGCTrace drops the GC trace lines from a CLI's stderr, for error
// messages.
func withoutGCTrace(stderr string) string {
	var keep []string
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		if !gcLine.MatchString(line) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// runTraced is the layer-by-layer traced run. It prints every per-layer
// metric, whichever workload it is given:
//
//   - the workload's unit once untraced and once traced on the same code
//     path: the tracing overhead, the untraced unit's runtime figures and
//     the traced unit's trace-cache counters. The runtime figures come
//     from the untraced unit because the CLI's span recorder holds its
//     buffers on the heap, which raises the collector's goal: a traced
//     large run collects about half as often;
//   - the per-artifact seconds from the CLI's own artifact spans: the
//     artifacts workload's traced unit, or for the others a traced
//     `regen -quick -j 1`;
//   - a closed loop of serve jobs (the serve-jobs workload's traced unit,
//     or a short loop of probeServeJobs), for the serve metrics;
//   - the layer probes.
//
// Spans stay in memory and are written to spans.jsonl in the work
// directory at the end. End-to-end numbers never come from this run.
func runTraced(e *env, name string, w workloadDef) (Result, error) {
	rec := newRecorder()
	metrics := map[string]Metric{}
	put := func(name string, v float64) { metrics[name] = layerValue(name, v) }
	var t tally

	s, _, err := setUp(e, w)
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	rt := &tracing{}
	base, err := s.unit(0, rt)
	if err != nil {
		return Result{}, err
	}
	t.merge(base.tally)
	tr, err := newTracing(rec, filepath.Join(e.work, "traced"))
	if err != nil {
		return Result{}, err
	}
	tu, err := s.unit(0, tr)
	if err != nil {
		return Result{}, err
	}
	t.merge(tu.tally)
	fmt.Fprintf(os.Stderr, "e2eharness: untraced unit: wall %.3f s, cpu %.3f s; traced unit: wall %.3f s, cpu %.3f s\n",
		base.wall.Seconds(), base.cpu.Seconds(), tu.wall.Seconds(), tu.cpu.Seconds())
	put("run.gc_cycles", float64(rt.gcCycles))
	put("run.gc_pause_ms", rt.gcPauseMs)
	put("run.alloc_mb", rt.allocMB)
	put("cache.misses", float64(tr.cache[0]))
	put("cache.hits", float64(tr.cache[1]))
	put("cache.streamed", float64(tr.cache[2]))
	put("overhead.wall_s", (tu.wall - base.wall).Seconds())
	put("overhead.cpu_s", (tu.cpu - base.cpu).Seconds())

	artifacts := tr.artifacts
	if name != "artifacts" {
		exp, err := loadExpected()
		if err != nil {
			return Result{}, err
		}
		regen, err := newTracing(rec, filepath.Join(e.work, "traced-regen"))
		if err != nil {
			return Result{}, err
		}
		u, err := (&artifactsSession{e: e, exp: exp}).unit(0, regen)
		if err != nil {
			return Result{}, err
		}
		t.merge(u.tally)
		artifacts = regen.artifacts
	}
	for file, d := range artifacts {
		stem := strings.TrimSuffix(file, ".txt")
		if !slices.Contains(artifactNames, stem) {
			return Result{}, fmt.Errorf("regen wrote %s, which the layer table does not list", file)
		}
		put("artifact."+stem+".s", d.Seconds())
	}

	jobs := tu.jobs
	if name != "serve-jobs" {
		if err := prepareServe(e); err != nil {
			return Result{}, err
		}
		ss, err := setupServe(e)
		if err != nil {
			return Result{}, err
		}
		u, err := ss.(*serveSession).loop(0, probeServeJobs, &tracing{rec: rec})
		ss.close()
		if err != nil {
			return Result{}, err
		}
		t.merge(u.tally)
		jobs = u.jobs
	}
	for k, v := range serveLayerMetrics(jobs) {
		put(k, v)
	}

	probes, err := runProbes(e, rec)
	if err != nil {
		return Result{}, err
	}
	for k, v := range probes {
		metrics[k] = v
	}
	if err := rec.write(filepath.Join(e.work, "spans.jsonl")); err != nil {
		return Result{}, err
	}
	if missing := missingMetrics(metrics); len(missing) > 0 {
		return Result{}, fmt.Errorf("traced run is missing metrics %s", strings.Join(missing, ", "))
	}
	return Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// missingMetrics lists the layer-table metrics absent from metrics or
// reported with another unit.
func missingMetrics(metrics map[string]Metric) []string {
	var missing []string
	for _, m := range layerMetrics {
		if got, ok := metrics[m.name]; !ok || got.Unit != m.unit {
			missing = append(missing, m.name)
		}
	}
	return missing
}

// serveLayerMetrics summarizes the jobs of a serve loop.
func serveLayerMetrics(jobs []jobRecord) map[string]float64 {
	var run, wait, upload []float64
	attempts, rejected := 0, 0
	for _, j := range jobs {
		if j.status == 429 || j.status == 503 {
			rejected++
		}
		attempts += j.attempts
		if j.status != 200 {
			continue
		}
		run = append(run, j.runMs)
		wait = append(wait, j.latMs-j.runMs)
		if j.upload {
			upload = append(upload, j.runMs)
		}
	}
	n := float64(max(len(jobs), 1))
	return map[string]float64{
		"serve.run_ms.p50":        groupedPercentile(run, 50),
		"serve.run_ms.p99":        groupedPercentile(run, 99),
		"serve.wait_ms.p50":       percentile(wait, 50),
		"serve.wait_ms.p99":       percentile(wait, 99),
		"serve.attempts_per_job":  float64(attempts) / n,
		"serve.rejected_frac":     float64(rejected) / n,
		"serve.upload.run_ms.p50": groupedPercentile(upload, 50),
	}
}
