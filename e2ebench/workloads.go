package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/workload"
)

// unitResult is one timed unit of a workload: one regen, one large run,
// one packed-sharded sequence or one batch of serve jobs.
type unitResult struct {
	wall, cpu time.Duration
	rssMB     float64
	// latenciesMs holds per-job latencies (serve-jobs); nil means the
	// unit's wall time is its one latency.
	latenciesMs []float64
	tally       tally
	// jobs is filled by serve-jobs only.
	jobs []jobRecord
}

// session is a workload after set-up: its inputs are prepared and it can
// run timed units until closed.
type session interface {
	// unit runs one unit through the user-facing surface: the CLI
	// process, or HTTP for serve-jobs. With tr set the same code path runs
	// traced, so a traced unit minus an untraced one is the tracing
	// overhead.
	unit(rep int, tr *tracing) (unitResult, error)
	close()
}

// workloadDef is a named workload: how to set it up, and how many times
// set-up is repeated so setup_s is a median.
type workloadDef struct {
	// prepare, when set, runs once before the timed set-ups: work that
	// only the output checks need.
	prepare   func(e *env) error
	setupReps int
	setup     func(e *env) (session, error)
}

var workloads = map[string]workloadDef{
	"artifacts":      {setupReps: 21, setup: setupArtifacts},
	"large":          {setupReps: 21, setup: setupLarge},
	"packed-sharded": {setupReps: 5, setup: setupPacked},
	"serve-jobs":     {prepare: prepareServe, setupReps: 9, setup: setupServe},
}

// runEndToEnd sets the workload up setupReps times (keeping the last
// session), then runs units until the measurement budget would be
// overrun by another unit as long as the last one. Every metric is a
// median over units (of each unit's peak RSS, for max_rss_mb), except the
// latency figures, which pool all samples: their median and their
// nearest-rank 99th percentile. A trace workload's run holds one or two
// units, so its latency median is the mean of two rather than the faster.
func runEndToEnd(e *env, w workloadDef) (Result, error) {
	s, setupS, err := setUp(e, w)
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	var (
		walls, cpus, rss, lats []float64
		t                      tally
	)
	start := time.Now()
	for rep := 0; ; rep++ {
		u, err := s.unit(rep, nil)
		if err != nil {
			return Result{}, err
		}
		walls = append(walls, u.wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
		if u.latenciesMs == nil {
			// A trace workload's latency is its unit: what a user waits
			// for one command or command sequence.
			lats = append(lats, ms(u.wall))
		}
		lats = append(lats, u.latenciesMs...)
		rss = append(rss, u.rssMB)
		t.merge(u.tally)
		fmt.Fprintf(os.Stderr, "e2eharness: unit %d: wall %.3f s, cpu %.3f s, rss %.1f MB, %d ops, %d failed\n",
			rep, u.wall.Seconds(), u.cpu.Seconds(), u.rssMB, u.tally.attempted, u.tally.failed)
		if time.Since(start)+u.wall > e.seconds {
			break
		}
	}
	for _, n := range t.notes {
		fmt.Fprintf(os.Stderr, "e2eharness: check failed: %s\n", n)
	}
	return Result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: withUnits(map[string]float64{
			"setup_s":        setupS,
			"wall_s":         median(walls),
			"cpu_s":          median(cpus),
			"max_rss_mb":     median(rss),
			"latency_p50_ms": median(lats),
			"latency_p99_ms": percentile(lats, 99),
		}),
	}, nil
}

// endToEndUnits are the end-to-end metrics every untraced run prints.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"cpu_s":          "s",
	"max_rss_mb":     "MB",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
}

func withUnits(values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(values))
	for name, v := range values {
		out[name] = Metric{v, endToEndUnits[name]}
	}
	return out
}

// setUp runs the workload's set-up w.setupReps times and returns the last
// session with the median set-up time.
func setUp(e *env, w workloadDef) (session, float64, error) {
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, 0, fmt.Errorf("prepare: %w", err)
		}
	}
	var (
		s     session
		times []float64
	)
	for i := 0; i < w.setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// listsWorkloads is the set-up the generated-trace workloads share: the
// CLI starts and lists every data set the workload replays. It times the
// CLI's start-up, which every command pays.
func listsWorkloads(e *env, names []string) error {
	out := filepath.Join(e.work, "list.txt")
	if _, err := runCLI(e, out, nil, "list"); err != nil {
		return err
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, n := range names {
		if !listed[n] {
			return fmt.Errorf("uselessmiss list does not list %s", n)
		}
	}
	return nil
}

// The large data sets the §7 workloads replay. WATER288 is left out: it
// alone takes about 30 s at -j 1.
var largeSet = []string{"LU200", "MP3D10000"}

// --- artifacts: `regen -quick -j 1` ---

type artifactsSession struct {
	e   *env
	exp *expected
}

// setupArtifacts loads the pinned digests and checks that the CLI lists
// the small data sets regen -quick replays.
func setupArtifacts(e *env) (session, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if err := listsWorkloads(e, workload.SmallSet()); err != nil {
		return nil, err
	}
	return &artifactsSession{e: e, exp: exp}, nil
}

// unit runs regen into a fresh directory, so the trace cache starts cold,
// and checks every artifact against its pinned digest.
func (s *artifactsSession) unit(rep int, tr *tracing) (unitResult, error) {
	dir := filepath.Join(s.e.work, fmt.Sprintf("regen-%d", rep))
	inv, err := runCLI(s.e, dir+".log", tr, "regen", "-quick", "-j", "1", "-o", dir)
	if err != nil {
		return unitResult{}, err
	}
	u := unitResult{wall: inv.wall, cpu: inv.cpu, rssMB: inv.rssMB}
	for _, a := range artifactNames {
		file := a + ".txt"
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			u.tally.add(1, 1, file+" missing")
			continue
		}
		checkDigest(got, s.exp.ArtifactsQuick[file], 1, file, &u.tally)
	}
	return u, os.RemoveAll(dir)
}

func (s *artifactsSession) close() {}

// --- large: the §7 driver on LU200 and MP3D10000, generated traces ---

type largeSession struct {
	e    *env
	want []byte // the committed rows of largeSet
}

// setupLarge loads the committed rows the run must print and checks that
// the CLI lists both data sets.
func setupLarge(e *env) (session, error) {
	want, err := committedRows("results/large.txt", largeSet)
	if err != nil {
		return nil, err
	}
	if err := listsWorkloads(e, largeSet); err != nil {
		return nil, err
	}
	return &largeSession{e: e, want: want}, nil
}

func (s *largeSession) unit(rep int, tr *tracing) (unitResult, error) {
	out := filepath.Join(s.e.work, "large.txt")
	inv, err := runCLI(s.e, out, tr, "large", "-j", "1", "-workloads", strings.Join(largeSet, ","))
	if err != nil {
		return unitResult{}, err
	}
	u := unitResult{wall: inv.wall, cpu: inv.cpu, rssMB: inv.rssMB}
	got, err := os.ReadFile(out)
	if err != nil {
		return u, err
	}
	checkRows(got, s.want, largeSet, "results/large.txt", &u.tally)
	return u, nil
}

func (s *largeSession) close() {}

// --- packed-sharded: replay from packed trace files at -shards 2 ---

type packedSession struct {
	e     *env
	exp   *expected
	files map[string]string // workload -> packed file
	// want holds each step's committed rows (fig6 is checked by digest).
	want map[string][]byte
}

// setupPacked packs both traces with `trace pack`, the set-up a user
// replaying from packed files pays once.
func setupPacked(e *env) (session, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	s := &packedSession{e: e, exp: exp, files: map[string]string{}, want: map[string][]byte{}}
	for _, step := range packedSteps {
		if step.committed == "" {
			continue
		}
		if s.want[step.name], err = committedRows(step.committed, step.workloads); err != nil {
			return nil, err
		}
	}
	for _, name := range largeSet {
		path := filepath.Join(e.work, name+".umtrace")
		if _, err := runCLI(e, filepath.Join(e.work, "pack.log"), nil, "trace", "pack", "-workload", name, "-o", path); err != nil {
			return nil, err
		}
		s.files[name] = path
	}
	return s, nil
}

func (s *packedSession) traceFileFlag() string {
	var specs []string
	for _, name := range largeSet {
		specs = append(specs, name+"="+s.files[name])
	}
	return strings.Join(specs, ",")
}

// packedSteps are the three drivers of one packed-sharded unit, with the
// committed file each one's rows must match (none for fig6, which is
// checked against its pinned digest).
var packedSteps = []struct {
	name      string
	args      []string
	workloads []string
	committed string
}{
	// table1: shard-native, segment-skipping readers into the fused
	// classifiers.
	{"table1", []string{"table1"}, largeSet, "results/table1.txt"},
	// fig6 at B=1024: shard-native readers into the fused 7-schedule
	// simulator.
	{"fig6", []string{"fig6", "-block", "1024"}, largeSet, ""},
	// large on MP3D10000: the demux path of coherence.RunShardedContext.
	{"large", []string{"large"}, []string{"MP3D10000"}, "results/large.txt"},
}

func (s *packedSession) unit(rep int, tr *tracing) (unitResult, error) {
	var u unitResult
	for _, step := range packedSteps {
		out := filepath.Join(s.e.work, step.name+".txt")
		args := append(append([]string{}, step.args...),
			"-j", "1", "-shards", "2", "-workloads", strings.Join(step.workloads, ","), "-trace-file", s.traceFileFlag())
		inv, err := runCLI(s.e, out, tr, args...)
		if err != nil {
			return u, err
		}
		u.wall += inv.wall
		u.cpu += inv.cpu
		u.rssMB = max(u.rssMB, inv.rssMB)
		got, err := os.ReadFile(out)
		if err != nil {
			return u, err
		}
		if step.committed == "" {
			checkDigest(got, s.exp.Fig6B1024Large, len(tableRows(got, protocols7)), "fig6 B=1024", &u.tally)
		} else {
			checkRows(got, s.want[step.name], step.workloads, step.committed, &u.tally)
		}
	}
	return u, nil
}

func (s *packedSession) close() {}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
