package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// packLU32 packs one LU32 trace through the CLI and returns its path.
func packLU32(t *testing.T, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "LU32.umt")
	args := append([]string{"trace", "pack", "-workload", "LU32", "-o", path}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("trace pack: %v", err)
	}
	return path
}

// runOut runs one CLI invocation and returns its rendered output.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return sb.String()
}

// TestTracestoreDifferentialFig5 is the out-of-core equivalence suite for
// the classification grid: replaying Fig. 5 from a packed trace file must
// be byte-for-byte identical to the in-memory replay at every combination
// of sweep parallelism and per-cell sharding. The file-backed sharded path
// opens segment-skipping shard readers, so this also proves the skip
// transparent end to end.
func TestTracestoreDifferentialFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	packed := packLU32(t)
	want := runOut(t, "fig5", "-workloads", "LU32")
	for _, j := range []string{"1", "8"} {
		for _, shards := range []string{"1", "8"} {
			name := fmt.Sprintf("j%s_shards%s", j, shards)
			t.Run(name, func(t *testing.T) {
				got := runOut(t, "fig5", "-workloads", "LU32",
					"-j", j, "-shards", shards, "-trace-file", "LU32="+packed)
				if got != want {
					t.Errorf("file-backed fig5 diverges from in-memory at %s:\n--- want\n%s\n--- got\n%s", name, want, got)
				}
			})
		}
	}
}

// TestTracestoreDifferentialTable1 runs the same check over the Table 1
// driver (three classification schemes off one fused pass).
func TestTracestoreDifferentialTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	packed := packLU32(t)
	want := runOut(t, "table1", "-quick", "-workloads", "LU32")
	for _, shards := range []string{"1", "8"} {
		name := "shards" + shards
		t.Run(name, func(t *testing.T) {
			got := runOut(t, "table1", "-quick", "-workloads", "LU32",
				"-j", "8", "-shards", shards, "-trace-file", "LU32="+packed)
			if got != want {
				t.Errorf("file-backed table1 diverges from in-memory at %s:\n--- want\n%s\n--- got\n%s", name, want, got)
			}
		})
	}
}

// TestTracestoreDifferentialSegmentBoundaries re-runs the fig5 comparison
// against files packed with adversarial segment sizes: tiny power-of-two
// segments, a prime segment size (sync records straddle every boundary
// shape), and a single-segment file.
func TestTracestoreDifferentialSegmentBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	want := runOut(t, "fig5", "-workloads", "LU32")
	for _, segRefs := range []string{"512", "769", "4194304"} {
		t.Run("segrefs"+segRefs, func(t *testing.T) {
			packed := packLU32(t, "-segment-refs", segRefs)
			got := runOut(t, "fig5", "-workloads", "LU32",
				"-j", "4", "-shards", "4", "-trace-file", "LU32="+packed)
			if got != want {
				t.Errorf("segment-refs=%s replay diverges from in-memory", segRefs)
			}
		})
	}
}

// TestTraceCLIRoundtrip exercises pack → info → cat: the decoded v2 stream
// must match tracegen's direct encoding byte for byte.
func TestTraceCLIRoundtrip(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "j.umt")
	v2 := filepath.Join(dir, "j.v2")
	cat := filepath.Join(dir, "j.cat")
	runOut(t, "trace", "pack", "-workload", "LU32", "-o", packed)
	runOut(t, "tracegen", "-workload", "LU32", "-o", v2)
	runOut(t, "trace", "cat", "-o", cat, packed)
	a, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("trace cat output differs from tracegen (%d vs %d bytes)", len(a), len(b))
	}
	info := runOut(t, "trace", "info", packed)
	for _, want := range []string{"format version", "processors", "segments", "toc sha256"} {
		if !strings.Contains(info, want) {
			t.Errorf("trace info missing %q:\n%s", want, info)
		}
	}
}

// TestTraceinfoPackedMatchesCodec: traceinfo sniffs the file format like
// every -trace flag, so a packed trace and the codec encoding of the same
// workload print the same table.
func TestTraceinfoPackedMatchesCodec(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "LU32.umt")
	v2 := filepath.Join(dir, "LU32.v2")
	runOut(t, "trace", "pack", "-workload", "LU32", "-o", packed)
	runOut(t, "tracegen", "-workload", "LU32", "-o", v2)
	fromPacked := runOut(t, "traceinfo", packed)
	fromCodec := runOut(t, "traceinfo", v2)
	if fromPacked != fromCodec {
		t.Fatalf("traceinfo differs between formats:\npacked:\n%s\ncodec:\n%s", fromPacked, fromCodec)
	}
	if !strings.Contains(fromPacked, "processors") {
		t.Fatalf("traceinfo printed no table:\n%s", fromPacked)
	}
}

// TestTraceFileFlagErrors covers the -trace-file flag's failure modes.
func TestTraceFileFlagErrors(t *testing.T) {
	var sb strings.Builder
	packed := packLU32(t)
	cases := [][]string{
		{"fig5", "-trace-file", "LU32"},                                              // no '='
		{"fig5", "-trace-file", "LU32=" + packed + ",LU32=" + packed},                // duplicate binding
		{"fig5", "-trace-file", "NOPE=" + packed},                                    // unknown workload
		{"fig5", "-trace-file", "LU32=" + filepath.Join(t.TempDir(), "missing.umt")}, // no such file
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v: error expected", args)
		}
	}
}

// TestTracestoreDifferentialFinite: the finite-cache sweep shards by cache
// set, which is not the block residue the segment-skipping shard readers
// are cut for, so a file-backed finite run must read full streams.
// 16-reference segments span few enough blocks that a block-residue reader
// would skip some of them, so any skip shows: -shards 3 (which does not
// divide the set counts) and -shards 8 must reproduce the in-memory
// -shards 1 replay byte for byte.
func TestTracestoreDifferentialFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	packed := packLU32(t, "-segment-refs", "16")
	want := runOut(t, "finite", "-workloads", "LU32", "-j", "1", "-shards", "1")
	for _, shards := range []string{"1", "3", "8"} {
		t.Run("shards"+shards, func(t *testing.T) {
			got := runOut(t, "finite", "-workloads", "LU32",
				"-j", "1", "-shards", shards, "-trace-file", "LU32="+packed)
			if got != want {
				t.Errorf("file-backed finite at -shards %s diverges from -shards 1:\n--- want\n%s\n--- got\n%s", shards, want, got)
			}
		})
	}
}
