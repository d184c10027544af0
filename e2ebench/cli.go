package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
)

// invocation is one finished uselessmiss process.
type invocation struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

// runCLI runs the CLI with args, writing its standard output to stdoutPath,
// and returns its wall time, CPU time and peak RSS from the kernel's
// rusage. A non-zero exit is an error carrying the process's stderr. With
// tr set, the process also prints the Go runtime's GC trace, and with
// tr.rec set it writes the CLI's own span log and metrics report; tr reads
// them back.
func runCLI(e *env, stdoutPath string, tr *tracing, args ...string) (invocation, error) {
	out, err := os.Create(stdoutPath)
	if err != nil {
		return invocation{}, err
	}
	defer out.Close()
	var call *cliCall
	if tr.recorder() != nil {
		call = tr.arm(args[0])
		args = append(append([]string{}, args...), "-span-log", call.spanLog, "-metrics", call.metrics)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(e.cli, args...)
	cmd.Stdout = out
	cmd.Stderr = &stderr
	if tr != nil {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	// The CLI dies with the harness, so a killed run leaves no replay
	// behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return invocation{}, fmt.Errorf("uselessmiss %s: %v: %s", strings.Join(args, " "), err, withoutGCTrace(stderr.String()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if tr != nil {
		if err := tr.collect(call, stderr.String()); err != nil {
			return invocation{}, fmt.Errorf("uselessmiss %s: %w", args[0], err)
		}
	}
	return invocation{wall: wall, cpu: rusageCPU(ru), rssMB: float64(ru.Maxrss) / 1024}, nil
}

// expected holds the digests the benchmark pins for outputs that have no
// committed counterpart under results/.
type expected struct {
	// ArtifactsQuick maps each `regen -quick` artifact to its sha256.
	ArtifactsQuick map[string]string `json:"artifacts_quick"`
	// Fig6B1024Large is the sha256 of `fig6 -block 1024 -workloads
	// LU200,MP3D10000`.
	Fig6B1024Large string `json:"fig6_b1024_LU200_MP3D10000"`
}

const expectedPath = "e2ebench/expected.json"

func loadExpected() (*expected, error) {
	b, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	var x expected
	if err := json.Unmarshal(b, &x); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	if len(x.ArtifactsQuick) == 0 || x.Fig6B1024Large == "" {
		return nil, fmt.Errorf("%s: missing digests", expectedPath)
	}
	return &x, nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// committedRows returns the committed results file with the table rows of
// every workload outside keep removed: what a driver run restricted to
// keep must print, byte for byte.
func committedRows(path string, keep []string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	drop := map[string]bool{}
	for _, n := range workload.Names() {
		drop[n] = true
	}
	for _, n := range keep {
		drop[n] = false
	}
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 && drop[f[0]] {
			continue
		}
		out.WriteString(line)
	}
	return out.Bytes(), nil
}

// tableRows lists the lines of a rendered table whose first field names
// one of the given workloads.
func tableRows(b []byte, names []string) []string {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var rows []string
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 && want[f[0]] {
			rows = append(rows, line)
		}
	}
	return rows
}

// checkRows compares a driver's output against want, the committed rows
// of the named workloads (see committedRows). Every expected row is one
// operation; a row that differs or is missing fails, and a difference
// outside the rows fails at least one.
func checkRows(got, want []byte, names []string, what string, t *tally) {
	wantRows, gotRows := tableRows(want, names), tableRows(got, names)
	failed := 0
	if !bytes.Equal(got, want) {
		for i, r := range wantRows {
			if i >= len(gotRows) || gotRows[i] != r {
				failed++
			}
		}
		if failed == 0 {
			failed = 1
		}
	}
	t.add(len(wantRows), failed, fmt.Sprintf("%d rows differ from %s", failed, what))
}

// checkDigest counts one operation per table row (or one for a rowless
// output) and fails them all when the output's digest is not the pinned
// one.
func checkDigest(got []byte, want string, rows int, what string, t *tally) {
	if rows < 1 {
		rows = 1
	}
	failed := 0
	if sha256Hex(got) != want {
		failed = rows
	}
	t.add(rows, failed, what+" does not match its pinned digest")
}
