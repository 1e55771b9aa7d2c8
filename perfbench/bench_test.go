package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests check
// against the benchmark's output.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)

	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerMetrics {
		if !strings.Contains(string(doc), "| `"+d.name+"` |") {
			t.Errorf("METRICS.md has no row for per-layer metric %s", d.name)
		}
	}
}

// metricNames returns the sorted names a result printed.
func metricNames(s summary) []string {
	var out []string
	for k := range s.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// countSpans counts a run record's spans by name.
func countSpans(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, s := range rec.Spans {
		n[s.Name]++
	}
	return n
}

// TestSmallRuns sends a shrunken run of every workload through the
// timed and the traced path: both must pass their output checks, print
// exactly BENCHMARK.json's metric names, and the layer pass must have
// replayed every experiment the executor ran.
func TestSmallRuns(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				c := config{workload: wl, seed: 7, small: true, trace: traced, outDir: t.TempDir()}
				res, err := run(c)
				if err != nil {
					t.Fatal(err)
				}
				s := res.summary
				if !s.Correct || s.Failed != 0 || len(res.problems) != 0 {
					t.Fatalf("trace=%t: correct=%t failed=%d/%d problems=%v", traced, s.Correct, s.Failed, s.Attempted, res.problems)
				}
				want := defNames(endToEndMetrics)
				if traced {
					want = defNames(perLayerMetrics)
				}
				if got := metricNames(s); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("trace=%t: printed metrics %v, want %v", traced, got, want)
				}
				if !traced {
					if v := s.Metrics["ok_frac"].Value; v != 1 {
						t.Errorf("ok_frac = %v, want 1", v)
					}
					continue
				}
				spans := countSpans(t, res.recordPath)
				if spans["exp.service"] == 0 || spans["layer.exp"] != spans["exp.service"] {
					t.Errorf("layer pass replayed %d experiments for %d executor experiments", spans["layer.exp"], spans["exp.service"])
				}
				if spans["exp.commit"] != spans["exp.service"] {
					t.Errorf("%d commit spans for %d experiments", spans["exp.commit"], spans["exp.service"])
				}
			}
		})
	}
}

// TestDefaultSeedMatchesExpected runs every full-size workload at the
// default seed; run compares each campaign's digest, tally and guest
// cycles against expected.json.
func TestDefaultSeedMatchesExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, err := run(config{workload: wl, seed: defaultSeed, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.summary.Correct {
				t.Fatalf("problems: %v", res.problems)
			}
		})
	}
}
