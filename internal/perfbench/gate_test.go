package perfbench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func syntheticReport(rps map[string]float64) *Report {
	rep := newReport(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	for name, v := range rps {
		w := WorkloadResult{
			Name: name, RefsPerPass: 1000, Passes: 3,
			RefsPerSec: v, NsPerRef: 1e9 / v,
		}
		if strings.HasPrefix(name, "classify/") {
			w.Pinned = true
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	rep.sortWorkloads()
	return rep
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6, "schedules/all7": 10e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 48e6, "schedules/all7": 10.5e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed within tolerance: %+v", g.Rows)
	}
	for _, r := range g.Rows {
		if r.Verdict != VerdictOK {
			t.Errorf("%s: verdict %s, want ok", r.Name, r.Verdict)
		}
	}
}

// TestCompareDoctoredBaselineFails: against a baseline with inflated
// throughput (the acceptance-criteria scenario), the gate fails and the
// regression table names the slow workload.
func TestCompareDoctoredBaselineFails(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 500e6}) // doctored 10x
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed against a doctored baseline")
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Verdict != VerdictSlow {
		t.Fatalf("failures = %+v, want one slow verdict", fails)
	}
	var sb strings.Builder
	g.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"classify/appendixA", "slow", "PERF GATE FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("regression table missing %q:\n%s", want, out)
		}
	}
}

func TestCompareMissingWorkloadFails(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6, "finite/lru": 20e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed with a baseline workload missing from the run")
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Name != "finite/lru" || fails[0].Verdict != VerdictMissing {
		t.Fatalf("failures = %+v", fails)
	}
}

func TestComparePinnedAllocsHardFail(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 55e6}) // faster, but...
	cur.Workloads[0].AllocsPerPass = 3
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if g.OK() {
		t.Fatal("gate passed a pinned path that allocates")
	}
	if fails := g.Failures(); len(fails) != 1 || fails[0].Verdict != VerdictAllocs {
		t.Fatalf("failures = %+v, want one allocs verdict", g.Failures())
	}
}

// TestCompareFastAndNewPass: being faster than baseline or adding a new
// workload is not a failure.
func TestCompareFastAndNewPass(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 80e6, "sharded/native4": 9e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if !g.OK() {
		t.Fatalf("gate failed on improvement: %+v", g.Rows)
	}
	verdicts := map[string]Verdict{}
	for _, r := range g.Rows {
		verdicts[r.Name] = r.Verdict
	}
	if verdicts["classify/appendixA"] != VerdictFast {
		t.Errorf("faster workload verdict = %s, want fast", verdicts["classify/appendixA"])
	}
	if verdicts["sharded/native4"] != VerdictNew {
		t.Errorf("new workload verdict = %s, want new", verdicts["sharded/native4"])
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	cur := syntheticReport(map[string]float64{"classify/appendixA": 50e6})
	base.Schema = "other/v2"
	if _, err := Compare(base, cur, DefaultTolerance()); err == nil {
		t.Fatal("Compare accepted mismatched schemas")
	}
}

// legacyReport is a v1 report as written before the harness stopped
// profiling: every workload still carries the cpu_sample_nanos and phases
// keys. Committed baselines of that shape must keep loading and gating.
const legacyReport = `{
  "schema": "uselessmiss/perfbench/v1",
  "host": "vm",
  "go_version": "go1.24.0",
  "goos": "linux",
  "goarch": "amd64",
  "num_cpu": 1,
  "date": "2026-08-07",
  "workloads": [
    {
      "name": "classify/appendixA",
      "pinned": true,
      "refs_per_pass": 1000,
      "passes": 3,
      "refs_per_sec": 50000000,
      "ns_per_ref": 20,
      "allocs_per_pass": 0,
      "cpu_sample_nanos": 500000000,
      "phases": {"classify": 100, "generation": 0, "merge": 0, "other": 0, "render": 0, "replay": 0, "runtime": 0, "shard-filter": 0}
    },
    {
      "name": "schedules/all7",
      "pinned": false,
      "refs_per_pass": 1000,
      "passes": 3,
      "refs_per_sec": 10000000,
      "ns_per_ref": 100,
      "allocs_per_pass": 81,
      "cpu_sample_nanos": 490000000,
      "phases": {"classify": 90, "generation": 0, "merge": 0, "other": 10, "render": 0, "replay": 0, "runtime": 0, "shard-filter": 0}
    }
  ]
}
`

// TestLoadAcceptsLegacyPhaseKeys: Load ignores the dropped per-phase keys
// of an older v1 report, and Compare gates against it as strictly as
// against a fresh one.
func TestLoadAcceptsLegacyPhaseKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_legacy.json")
	if err := os.WriteFile(path, []byte(legacyReport), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := Load(path)
	if err != nil {
		t.Fatalf("Load rejected a legacy v1 report: %v", err)
	}
	if w, ok := base.Result("classify/appendixA"); !ok || !w.Pinned || w.RefsPerSec != 50e6 || w.RefsPerPass != 1000 {
		t.Fatalf("legacy gated fields not decoded: %+v", base.Workloads)
	}

	cur := syntheticReport(map[string]float64{"classify/appendixA": 49e6, "schedules/all7": 5e6})
	g, err := Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if fails := g.Failures(); len(fails) != 1 || fails[0].Name != "schedules/all7" || fails[0].Verdict != VerdictSlow {
		t.Fatalf("failures = %+v, want schedules/all7 slow", fails)
	}

	// A pinned path that allocates still hard-fails against the legacy
	// baseline, however fast it runs.
	cur = syntheticReport(map[string]float64{"classify/appendixA": 60e6, "schedules/all7": 10e6})
	cur.Workloads[0].AllocsPerPass = 1
	g, err = Compare(base, cur, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if fails := g.Failures(); len(fails) != 1 || fails[0].Verdict != VerdictAllocs {
		t.Fatalf("failures = %+v, want one allocs verdict", fails)
	}
}
