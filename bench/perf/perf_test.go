package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const benchJSON = "../../BENCHMARK.json"

// TestMain lets the test binary stand in for lard-perf's workload
// processes, which the parent starts by re-running its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestQuickSmoke runs every workload in -quick mode, untraced and traced,
// and checks the result set against BENCHMARK.json: every listed metric
// for every listed workload, in its unit, and no failed operation.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadBenchSpec(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, lard-perf runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, lard-perf %q", i, w.Name, workloads[i].name)
		}
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		out := filepath.Join(dir, "set.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-seed", "3", "-dir", dir, "-bench", benchJSON, "-out", out}
		if traced {
			args = append(args, "-trace", "1")
		}
		start := time.Now()
		if code := Main(args, &stdout, &stderr); code != 0 {
			t.Fatalf("lard-perf %v exited %d:\n%s", args, code, stderr.String())
		}
		t.Logf("traced=%v: %v", traced, time.Since(start))
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var set Set
		if err := json.Unmarshal(b, &set); err != nil {
			t.Fatalf("result set does not parse: %v", err)
		}
		listed := spec.EndToEnd
		if traced {
			listed = spec.PerLayer
		}
		if len(set.Workloads) != len(spec.Workloads) {
			t.Fatalf("set has %d workloads, want %d", len(set.Workloads), len(spec.Workloads))
		}
		for _, w := range set.Workloads {
			if w.Failed != 0 || w.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s: %d of %d failed: %v", w.Name, w.Failed, w.Attempted, w.Errors)
			}
			if w.Digest == "" {
				t.Errorf("%s: no outcome digest", w.Name)
			}
			for _, m := range listed {
				got, ok := w.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.Name, m.Name, got, m.Unit)
				}
			}
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var summary struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("last line is not the summary: %v", err)
		}
		if !summary.Correct || summary.Attempted == 0 || len(summary.Metrics) != len(listed)*len(workloads) {
			t.Errorf("summary %+v", summary)
		}
		if traced {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestChecksCountFailures feeds the output checks wrong outputs and
// asserts each one counts as a failed operation.
func TestChecksCountFailures(t *testing.T) {
	var tl tally
	for _, err := range []error{
		checkOps(99, 99, 100),  // wrong op count
		checkOps(100, 98, 100), // misses do not sum to ops
		checkDigest("aaaa", "bbbb"),
		checkResponse(429, nil, time.Millisecond, time.Second),
		checkResponse(500, nil, time.Millisecond, time.Second),
		checkResponse(200, nil, 6*time.Second, cachedLimit),
		checkResponse(0, errors.New("connection refused"), 0, time.Second),
	} {
		tl.check(err)
	}
	tl.check(checkOps(100, 100, 100))
	tl.check(checkResponse(200, nil, time.Millisecond, time.Second))
	if tl.Attempted != 9 || tl.Failed != 7 {
		t.Errorf("tally = %d failed of %d, want 7 of 9: %v", tl.Failed, tl.Attempted, tl.Errors)
	}
	var l loadStats
	l.record(checkResponse(429, nil, 0, time.Second), 0, 0)
	if l.shed != 1 || l.Failed != 1 || len(l.lat) != 0 {
		t.Errorf("a 429 must count as shed and failed, with no latency sample: %+v", l)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdicts covers compare's decision rule.
func TestVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: &bound}
	seq := func(base, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i%3)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster everywhere", seq(100, 1, 10), seq(80, 1, 10), "improved"},
		{"same", seq(100, 1, 10), seq(100, 1, 10), "no worse"},
		{"slower", seq(100, 1, 10), seq(120, 1, 10), "worse"},
		{"too few pairs to claim", seq(100, 1, 3), seq(80, 1, 3), "no worse"},
		{"noisy parent", []float64{50, 150, 60, 140, 100}, []float64{100, 100, 100, 100, 100}, "unresolved"},
	} {
		if got, _ := (comparison{metric: lower, parent: c.parent, change: c.change}).verdict(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
