package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalPackages lists every package under ../internal that has
// non-test Go files, as paths relative to internal/ (e.g. "obs/span").
func internalPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

// TestEveryInternalPackageIsAttributed fails when an internal package is
// neither mapped to a layer that has metrics nor listed as intentionally
// unmeasured, and when either table names a package that no longer exists.
func TestEveryInternalPackageIsAttributed(t *testing.T) {
	pkgs := internalPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("no internal packages found")
	}
	layersWithMetrics := map[string]bool{}
	for _, m := range layerMetrics {
		layersWithMetrics[m.layer] = true
	}
	exists := map[string]bool{}
	for _, p := range pkgs {
		exists[p] = true
		layer, mapped := packageLayers[p]
		_, skipped := unmeasuredPackages[p]
		switch {
		case mapped && skipped:
			t.Errorf("internal/%s is both mapped to %q and listed as unmeasured", p, layer)
		case mapped && !layersWithMetrics[layer]:
			t.Errorf("internal/%s maps to layer %q, which has no metric", p, layer)
		case !mapped && !skipped:
			t.Errorf("internal/%s is neither mapped to a layer metric nor listed as unmeasured", p)
		}
	}
	for p := range packageLayers {
		if !exists[p] {
			t.Errorf("packageLayers names internal/%s, which does not exist", p)
		}
	}
	for p := range unmeasuredPackages {
		if !exists[p] {
			t.Errorf("unmeasuredPackages names internal/%s, which does not exist", p)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's workloads and
// per-layer metrics in step with what the harness runs and prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness runs %s", got, want)
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the layer table %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if m.layer == "" || m.moves == "" {
			t.Errorf("%s does not say which layer it measures and what it should move", m.name)
		}
		if i >= len(bj.PerLayer) {
			break
		}
		p := bj.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per_layer[%d] = %s %s %s, layer table has %s %s %s", i, p.Name, p.Unit, p.Better, m.name, m.unit, m.better)
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for name, unit := range endToEndUnits {
		if e2e[name] != unit {
			t.Errorf("end_to_end metric %s: BENCHMARK.json unit %q, harness prints %q", name, e2e[name], unit)
		}
	}
	if len(e2e) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness prints %d", len(e2e), len(endToEndUnits))
	}
}

// TestMissingMetricsNamesEveryGap checks the traced run's own completeness
// gate: an absent metric and a metric with the wrong unit both count.
func TestMissingMetricsNamesEveryGap(t *testing.T) {
	all := map[string]Metric{}
	for _, m := range layerMetrics {
		all[m.name] = Metric{1, m.unit}
	}
	if missing := missingMetrics(all); len(missing) != 0 {
		t.Fatalf("complete set reported missing %v", missing)
	}
	delete(all, "cache.hits")
	all["pack.bytes_per_ref"] = Metric{1, "ns/ref"}
	missing := missingMetrics(all)
	if strings.Join(missing, ",") != "pack.bytes_per_ref,cache.hits" {
		t.Fatalf("missing = %v, want pack.bytes_per_ref and cache.hits", missing)
	}
}

// TestExpectedPinsEveryArtifact: expected.json pins a digest for exactly
// the artifacts of the layer table.
func TestExpectedPinsEveryArtifact(t *testing.T) {
	b, err := os.ReadFile("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var x expected
	if err := json.Unmarshal(b, &x); err != nil {
		t.Fatal(err)
	}
	if len(x.ArtifactsQuick) != len(artifactNames) {
		t.Errorf("expected.json pins %d artifacts, the layer table lists %d", len(x.ArtifactsQuick), len(artifactNames))
	}
	for _, a := range artifactNames {
		if len(x.ArtifactsQuick[a+".txt"]) != 64 {
			t.Errorf("expected.json has no sha256 for %s.txt", a)
		}
	}
}
