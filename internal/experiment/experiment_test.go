package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func quickOpts(sb *strings.Builder) Options {
	return Options{Out: sb, Quick: true, Workloads: []string{"LU32"}}
}

func TestTable1Quick(t *testing.T) {
	var sb strings.Builder
	if err := Table1(quickOpts(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "LU32", "ours", "eggers", "torrellas", "TS", "COLD", "FS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1CSV(t *testing.T) {
	var sb strings.Builder
	o := quickOpts(&sb)
	o.CSV = true
	if err := Table1(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "workload,B,class,scheme,misses,paper") {
		t.Errorf("CSV header missing:\n%s", sb.String())
	}
}

func TestTable1PaperColumnPresent(t *testing.T) {
	// Without Quick and with the real Table 1 workloads the paper
	// reference is attached; use the small trace but the LU200 name is
	// too slow for a unit test, so just verify the reference data shape.
	for name, byBlock := range table1Paper {
		for b, ref := range byBlock {
			if b != 32 && b != 1024 {
				t.Errorf("%s: unexpected block %d", name, b)
			}
			for _, scheme := range ref {
				for _, v := range scheme {
					if v == 0 {
						t.Errorf("%s/B=%d: zero reference entry", name, b)
					}
				}
			}
		}
	}
}

func TestTable2Quick(t *testing.T) {
	var sb strings.Builder
	o := Options{Out: &sb, Quick: true}
	if err := Table2(o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range append(workload.SmallSet(), "speedup", "|") {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WATER288") {
		t.Error("quick Table 2 should not stream the large sets")
	}
}

func TestFig5Quick(t *testing.T) {
	var sb strings.Builder
	o := quickOpts(&sb)
	o.Blocks = []int{8, 64}
	if err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 5", "PC", "CTS", "CFS", "PTS", "PFS", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	var sb strings.Builder
	o := quickOpts(&sb)
	if err := Fig6(o, 64); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 6", "MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX", "TRUE", "FALSE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6RejectsBadBlock(t *testing.T) {
	var sb strings.Builder
	if err := Fig6(quickOpts(&sb), 100); err == nil {
		t.Error("non-power-of-two block accepted")
	}
}

func TestLargeQuick(t *testing.T) {
	var sb strings.Builder
	o := quickOpts(&sb)
	o.Protocols = []string{"MIN", "OTF"}
	if err := Large(o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Section 7", "MIN", "OTF", "vs MIN", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownWorkloadPropagates(t *testing.T) {
	var sb strings.Builder
	o := Options{Out: &sb, Workloads: []string{"NOPE"}}
	if err := Table2(o); err == nil {
		t.Error("Table2 accepted unknown workload")
	}
	if err := Fig5(o); err == nil {
		t.Error("Fig5 accepted unknown workload")
	}
	if err := Fig6(o, 64); err == nil {
		t.Error("Fig6 accepted unknown workload")
	}
	if err := Large(o); err == nil {
		t.Error("Large accepted unknown workload")
	}
	if err := Table1(o); err == nil {
		t.Error("Table1 accepted unknown workload")
	}
}

// Fig. 6's single-pass multi-protocol run must agree with independent runs.
func TestRunProtocolsMatchesIndividualRuns(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	g := mem.MustGeometry(64)
	protos := []string{"MIN", "OTF", "MAX"}
	open := func(int) (trace.Reader, error) { return w.Reader(), nil }
	results, err := coherence.RunProtocolsShardedOpen(context.Background(), open, w.Procs, g, protos, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range protos {
		want, err := coherence.RunWith(name, w.Reader(), g)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("%s: fused %+v, individual %+v", name, results[i], want)
		}
	}
	if results[0].Misses > results[1].Misses || results[1].Misses > results[2].Misses {
		t.Errorf("MIN <= OTF <= MAX violated: %d %d %d",
			results[0].Misses, results[1].Misses, results[2].Misses)
	}
}
