// Command e2eharness is the repository benchmark: it replays one named
// workload through the uselessmiss CLI (or, for serve-jobs, an in-process
// serve.Server), checks every output byte for byte, and prints one JSON
// result line. With -trace 1 it instead runs the layer-by-layer traced
// suite (see traced.go and probes.go).
//
// It is normally started by run.py, which builds both binaries first:
//
//	e2eharness -workload large -seed 1 -seconds 24 -trace 0 -cli .bench_build/bin/uselessmiss
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of the harness's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tally counts operations (artifacts, table rows or jobs) and the ones
// whose output did not match.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(attempted, failed int, note string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 {
		t.notes = append(t.notes, note)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// env is what every workload needs to run.
type env struct {
	cli     string // path to the built uselessmiss binary
	work    string // scratch directory inside the checkout
	seed    int64
	seconds time.Duration
	// jobs is the serve job mix, once prepareServe has built it.
	jobs *jobCatalog
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed (drives the serve-jobs sequence; recorded for every workload)")
	seconds := flag.Int("seconds", 24, "measurement budget per run in seconds")
	traced := flag.Int("trace", 0, "1 runs the layer-by-layer traced suite instead of the end-to-end run")
	cli := flag.String("cli", "", "path to the built uselessmiss binary")
	work := flag.String("work", ".bench_build/work", "scratch directory for outputs, packed traces and run records")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
	}
	if *cli == "" {
		fatalf("-cli is required")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	for _, f := range requiredInputs {
		if _, err := os.Stat(f); err != nil {
			fatalf("not a checkout of the repository: %v", err)
		}
	}
	e := &env{cli: *cli, work: filepath.Join(*work, *workloadName), seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if err := os.RemoveAll(e.work); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatalf("%v", err)
	}

	prov := startProvenance(*workloadName, *seed, *traced == 1)
	var (
		res Result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(e, *workloadName, w)
	} else {
		res, err = runEndToEnd(e, w)
	}
	if err != nil {
		fatalf("%s: %v", *workloadName, err)
	}
	prov.finish(res)
	if err := prov.save(filepath.Join(*work, "runs")); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// requiredInputs are the checkout files the output checks read; their
// absence means the harness is not running from a checkout root.
var requiredInputs = []string{"go.mod", "results/large.txt", "results/table1.txt", "e2ebench/expected.json"}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2eharness: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuSelf is the process's user+sys CPU time so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return rusageCPU(&ru)
}

// maxRSSSelfMB is the process's peak resident set in MB.
func maxRSSSelfMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	// Halved apart, so two failed jobs' math.MaxFloat64 latencies stay
	// finite.
	return s[n/2-1]/2 + s[n/2]/2
}

// percentile is the nearest-rank percentile of xs (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// groupedPercentile is the percentile of whole-number samples (the
// server's millisecond job times), interpolated within the tied group as
// for grouped data: a sample of v stands for the interval [v-0.5, v+0.5).
// It moves with the distribution instead of sticking to one integer.
func groupedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	target := p / 100 * float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if float64(j) >= target {
			return s[i] - 0.5 + (target-float64(i))/float64(j-i)
		}
		i = j
	}
	return s[len(s)-1]
}
