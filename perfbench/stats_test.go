package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// metricNameRE is the metric-name grammar: letters, digits, '_', '.', '-',
// starting with a letter or digit, at most 64 characters.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, err := percentile(xs, 0.99)
	if err != nil || v != 990 || n != 1000 {
		t.Errorf("p99 of 1..1000 = %v, n=%d, err=%v; want 990, 1000, nil", v, n, err)
	}
	// 999 samples leave only 9 beyond the p99 rank.
	if _, n, err := percentile(xs[:999], 0.99); err == nil || n != 999 {
		t.Errorf("p99 of 999 samples: n=%d err=%v; want a refusal reporting 999", n, err)
	}
	if v, _, err := percentile(xs[:100], 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, _, err := percentile(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond it; want a refusal")
	}
	if _, _, err := percentile(xs, 1); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRunnerIdleFrac(t *testing.T) {
	// Two workers over a 10 s batch: 15 s of runs leaves a quarter idle.
	if got := runnerIdleFrac([]float64{5, 4, 6}, 2, 10); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("idle = %v, want 0.25", got)
	}
	if got := runnerIdleFrac([]float64{10, 10}, 2, 10); got != 0 {
		t.Errorf("fully busy pool: idle = %v, want 0", got)
	}
	if got := runnerIdleFrac(nil, 2, 10); got != 1 {
		t.Errorf("no runs: idle = %v, want 1", got)
	}
	if got := runnerIdleFrac([]float64{1}, 0, 10); got != 0 {
		t.Errorf("no workers: idle = %v, want 0", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "pipeline.dtlb_hit_ratio", "p-9", "9x"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.name) || seen[d.name] {
			t.Errorf("metric %q invalid or duplicated", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json at the repository root to
// the metric sets the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for i := range names {
		if i < len(workloadNames) && names[i] != workloadNames[i] {
			t.Errorf("workload %d = %q, want %q", i, names[i], workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || (d.better != "" && g.Better != d.better) {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
