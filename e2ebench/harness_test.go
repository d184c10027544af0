package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// inRepoRoot runs the rest of the test from the repository root, where the
// harness expects results/ and e2ebench/expected.json.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// buildCLI builds the uselessmiss binary the harness drives.
func buildCLI(t *testing.T) string {
	t.Helper()
	cli := filepath.Join(t.TempDir(), "uselessmiss")
	cmd := exec.Command("go", "build", "-o", cli, "./cmd/uselessmiss")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the CLI: %v\n%s", err, out)
	}
	return cli
}

// shrink makes the serve loops and probe inputs small for a test run.
func shrink(t *testing.T) {
	t.Helper()
	jobs, probeJobs, refs := jobsPerUnit, probeServeJobs, probeRefs
	jobsPerUnit, probeServeJobs, probeRefs = 40, 40, 1<<16
	t.Cleanup(func() { jobsPerUnit, probeServeJobs, probeRefs = jobs, probeJobs, refs })
}

func testEnv(t *testing.T, cli string) *env {
	return &env{cli: cli, work: t.TempDir(), seed: 7, seconds: time.Second}
}

// TestTracedRunPrintsEveryLayerMetric runs the traced suite (with small
// serve loops and probe inputs) and fails when it omits a metric of the
// layer table or prints one with the wrong unit.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced regen -quick (~20 s)")
	}
	cli := buildCLI(t)
	shrink(t)
	inRepoRoot(t)
	res, err := runTraced(testEnv(t, cli), "serve-jobs", workloads["serve-jobs"])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range layerMetrics {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("traced run omits %s", m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("traced run prints %d metrics, the layer table has %d", len(res.Metrics), len(layerMetrics))
	}
}

// TestEndToEndRunPrintsEveryMetric runs a short serve-jobs end-to-end run:
// every end-to-end metric, positive, with its unit, and every job checked.
func TestEndToEndRunPrintsEveryMetric(t *testing.T) {
	cli := buildCLI(t)
	shrink(t)
	inRepoRoot(t)
	res, err := runEndToEnd(testEnv(t, cli), workloads["serve-jobs"])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < jobsPerUnit {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var names []string
	for name, m := range res.Metrics {
		names = append(names, name)
		if m.Unit != endToEndUnits[name] || m.Value <= 0 {
			t.Errorf("%s = %v %s", name, m.Value, m.Unit)
		}
	}
	sort.Strings(names)
	if len(names) != len(endToEndUnits) {
		t.Errorf("printed %v", names)
	}
}

// TestOutputMismatchCountsAsFailure: a changed row fails exactly that row,
// and a wrong digest fails every row it covers.
func TestOutputMismatchCountsAsFailure(t *testing.T) {
	inRepoRoot(t)
	want, err := committedRows("results/large.txt", largeSet)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tableRows(want, largeSet)); n != 28 {
		t.Fatalf("large.txt has %d LU200/MP3D10000 rows, want 28", n)
	}
	var ok tally
	checkRows(want, want, largeSet, "large.txt", &ok)
	if ok.attempted != 28 || ok.failed != 0 {
		t.Errorf("identical output: attempted=%d failed=%d", ok.attempted, ok.failed)
	}
	bad := strings.Replace(string(want), "LU200        64       OTF   0.34", "LU200        64       OTF   0.35", 1)
	if bad == string(want) {
		t.Fatal("doctoring the LU200 OTF row changed nothing")
	}
	var one tally
	checkRows([]byte(bad), want, largeSet, "large.txt", &one)
	if one.failed != 1 {
		t.Errorf("one changed row: failed=%d, want 1", one.failed)
	}
	var trailer tally
	checkRows(append(want, '\n'), want, largeSet, "large.txt", &trailer)
	if trailer.failed != 1 {
		t.Errorf("difference outside the rows: failed=%d, want 1", trailer.failed)
	}
	var dig tally
	checkDigest([]byte("x"), sha256Hex([]byte("y")), 7, "doctored", &dig)
	if dig.attempted != 7 || dig.failed != 7 {
		t.Errorf("wrong digest: attempted=%d failed=%d, want 7 and 7", dig.attempted, dig.failed)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{math.MaxFloat64, 1, math.MaxFloat64, math.MaxFloat64}); got != math.MaxFloat64 {
		t.Errorf("median of three failed latencies and a clean one = %v, want math.MaxFloat64", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	// Ten samples of 10 ms and ten of 11 ms: the median sits on the
	// boundary between the two groups, the p25 inside the first.
	var ms []float64
	for i := 0; i < 10; i++ {
		ms = append(ms, 10, 11)
	}
	if got := groupedPercentile(ms, 50); got != 10.5 {
		t.Errorf("grouped p50 = %v, want 10.5", got)
	}
	if got := groupedPercentile(ms, 25); got != 10 {
		t.Errorf("grouped p25 = %v, want 10", got)
	}
}

// TestJobSequenceIsStratified: every seed's block of 100 jobs holds each
// job exactly its weight, and the sequence does not depend on where a
// read starts.
func TestJobSequenceIsStratified(t *testing.T) {
	c := &jobCatalog{jobs: []jobSpec{{key: "a", weight: 70}, {key: "b", weight: 27}, {key: "c", weight: 3}}, total: 100}
	for seed := int64(1); seed <= 3; seed++ {
		seq := c.sequence(seed, 0, 300)
		for block := 0; block < 3; block++ {
			count := map[string]int{}
			for _, j := range seq[block*100 : (block+1)*100] {
				count[j.key]++
			}
			if count["a"] != 70 || count["b"] != 27 || count["c"] != 3 {
				t.Errorf("seed %d block %d: %v", seed, block, count)
			}
		}
		tail := c.sequence(seed, 150, 120)
		for i, j := range tail {
			if j.key != seq[150+i].key {
				t.Fatalf("seed %d: job %d differs when read from 150", seed, 150+i)
			}
		}
	}
	a, b := c.sequence(1, 0, 100), c.sequence(2, 0, 100)
	same := 0
	for i := range a {
		if a[i].key == b[i].key {
			same++
		}
	}
	if same == 100 {
		t.Error("seeds 1 and 2 give the same order")
	}
}

// TestParseGCTrace reads cycles, stop-the-world pauses and allocation from
// GODEBUG=gctrace=1 lines, and leaves other stderr lines alone.
func TestParseGCTrace(t *testing.T) {
	stderr := `gc 1 @0.008s 2%: 0.012+1.2+0.024 ms clock, 0.025+0.21/0.98/0+0.049 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
some other line
gc 2 @0.100s 1%: 0.5+3.0+0.25 ms clock, 1.0+0.5/1.0/0+0.5 ms cpu, 8->9->2 MB, 9 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)
`
	g := parseGCTrace(stderr)
	if g.cycles != 2 {
		t.Errorf("cycles = %d, want 2", g.cycles)
	}
	if want := 0.012 + 0.024 + 0.5 + 0.25; g.pauseMs < want-1e-9 || g.pauseMs > want+1e-9 {
		t.Errorf("pause = %v ms, want %v", g.pauseMs, want)
	}
	// 4 MB to the end of cycle 1, then 9 - 1 more to the end of cycle 2.
	if g.allocMB != 12 {
		t.Errorf("alloc = %v MB, want 12", g.allocMB)
	}
	if got := withoutGCTrace(stderr); got != "some other line" {
		t.Errorf("withoutGCTrace = %q", got)
	}
}

// TestTracedCLIUnit runs one traced CLI command: the invocation gets a
// span, the CLI's driver span is recorded under it, and the metrics report
// and GC trace are read back.
func TestTracedCLIUnit(t *testing.T) {
	cli := buildCLI(t)
	inRepoRoot(t)
	e := testEnv(t, cli)
	rec := newRecorder()
	tr, err := newTracing(rec, filepath.Join(e.work, "traced"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(e, filepath.Join(e.work, "out.txt"), tr, "fig6", "-quick", "-workloads", "LU32", "-j", "1"); err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) != 2 || rec.spans[0].Name != "cli.fig6" || rec.spans[1].Name != "experiment.fig6" || rec.spans[1].Parent != 1 {
		t.Errorf("spans = %+v, want cli.fig6 with experiment.fig6 under it", rec.spans)
	}
	if tr.cache[0] == 0 || tr.gcCycles == 0 {
		t.Errorf("cache misses %d, gc cycles %d: want both read back", tr.cache[0], tr.gcCycles)
	}
}
