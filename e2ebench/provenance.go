package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance records the host and build a run came from, so a slow run can
// be explained and numbers from different hosts are never compared. Steal
// is recorded, never used to drop a run.
type provenance struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Start       string            `json:"start"`
	WallS       float64           `json:"wall_s"`
	NumCPU      int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	Commit      string            `json:"commit"`
	SourceSHA   string            `json:"source_sha256"`
	LoadStart   string            `json:"loadavg_start"`
	LoadEnd     string            `json:"loadavg_end"`
	StealShare  float64           `json:"steal_share"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]Metric `json:"metrics"`
	start       time.Time
	statAtStart cpuTimes
}

func startProvenance(workload string, seed int64, traced bool) *provenance {
	now := time.Now()
	return &provenance{
		Workload:    workload,
		Seed:        seed,
		Traced:      traced,
		Start:       now.UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      envOr("E2EBENCH_COMMIT", "unknown"),
		SourceSHA:   envOr("E2EBENCH_SOURCE_SHA256", "unknown"),
		LoadStart:   loadavg(),
		start:       now,
		statAtStart: readCPUTimes(),
	}
}

// finish closes the run window and attaches the result.
func (p *provenance) finish(res Result) {
	p.WallS = time.Since(p.start).Seconds()
	p.LoadEnd = loadavg()
	p.StealShare = readCPUTimes().stealShareSince(p.statAtStart)
	p.Correct, p.Attempted, p.Failed, p.Metrics = res.Correct, res.Attempted, res.Failed, res.Metrics
}

// save writes the record under dir and echoes it to stderr.
func (p *provenance) save(dir string) error {
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "provenance %s\n", b)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", p.Workload, p.Seed, p.Traced, p.start.UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unavailable"
	}
	return strings.Join(f[:3], " ")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total and steal
// jiffies.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted inside user and nice.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealShareSince is the fraction of all CPU time the hypervisor stole
// between then and t.
func (t cpuTimes) stealShareSince(then cpuTimes) float64 {
	if t.total <= then.total {
		return 0
	}
	return float64(t.steal-then.steal) / float64(t.total-then.total)
}
