package obs

import (
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cum, sum, total := h.snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	// le semantics: an observation equal to a bound lands in that bucket.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if want := 0.005 + 0.01 + 0.05 + 0.5 + 5; sum < want-1e-9 || sum > want+1e-9 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

func TestHistogramVecRendersWithoutTraffic(t *testing.T) {
	o := Nop()
	var b strings.Builder
	o.WriteHistograms(&b)
	text := b.String()
	for _, fam := range []string{
		"lard_run_duration_seconds", "lard_queue_wait_seconds",
		"lard_store_op_seconds", "lard_http_request_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" histogram") {
			t.Errorf("zero-traffic exposition missing family %s", fam)
		}
	}
	// Unlabeled families must render their (empty) child eagerly.
	if !strings.Contains(text, "lard_run_duration_seconds_count 0") {
		t.Error("unlabeled family did not render an eager empty child")
	}
	if errs := Lint(text); len(errs) > 0 {
		t.Fatalf("zero-traffic exposition fails lint: %v", errs)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	v := NewHistogramVec("x_seconds", "help.", []string{"op", "backend"}, []float64{1})
	v.ObserveDuration(500*time.Millisecond, "get", "memory")
	v.ObserveDuration(2*time.Second, "get", "memory")
	v.Observe(0.1, "put", "disk")
	var b strings.Builder
	v.Write(&b)
	text := b.String()
	for _, want := range []string{
		`x_seconds_bucket{op="get",backend="memory",le="1"} 1`,
		`x_seconds_bucket{op="get",backend="memory",le="+Inf"} 2`,
		`x_seconds_count{op="get",backend="memory"} 2`,
		`x_seconds_bucket{op="put",backend="disk",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	if errs := Lint(text); len(errs) > 0 {
		t.Fatalf("labeled exposition fails lint: %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no declaration", "orphan_total 1\n", "no HELP/TYPE"},
		{"type before help",
			"# TYPE a gauge\n# HELP a h\na 1\n", "without preceding HELP"},
		{"duplicate family",
			"# HELP a h\n# TYPE a gauge\na 1\n# HELP b h\n# TYPE b gauge\nb 1\n# HELP a h\n# TYPE a gauge\n",
			"reappears"},
		{"non-cumulative buckets",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative"},
		{"inf mismatch",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
			"!= _count"},
		{"missing sum",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n",
			"missing _sum"},
		{"missing inf",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_sum 0\nh_count 0\n",
			`missing le="+Inf"`},
		{"bad value", "# HELP a h\n# TYPE a gauge\na xyz\n", "value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := Lint(tc.text)
			if len(errs) == 0 {
				t.Fatalf("Lint accepted invalid exposition:\n%s", tc.text)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("Lint errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

func TestLintAcceptsCleanExposition(t *testing.T) {
	clean := `# HELP lard_up whether up
# TYPE lard_up gauge
lard_up 1
# HELP lard_reqs_total requests
# TYPE lard_reqs_total counter
lard_reqs_total{code="200"} 10
lard_reqs_total{code="500"} 1
`
	if errs := Lint(clean); len(errs) > 0 {
		t.Fatalf("Lint rejected clean exposition: %v", errs)
	}
}

func TestTracerTreeLifecycle(t *testing.T) {
	tr := NewTracer()
	root := tr.StartTrace("run-1", "run")
	root.SetAttr("benchmark", "BARNES")
	adm := root.Child("admitted")
	adm.Child("child").End()
	adm.End()
	simSpan := root.Child("simulating")
	base := time.Now()
	simSpan.ChildAt("coherence_loop", base, 50*time.Millisecond)
	simSpan.End()
	root.End()

	v, ok := tr.Tree("run-1")
	if !ok {
		t.Fatal("trace not found")
	}
	if !v.Finished {
		t.Error("trace should be finished")
	}
	if v.Root.Name != "run" || len(v.Root.Children) != 2 {
		t.Fatalf("unexpected tree shape: %+v", v.Root)
	}
	if v.Root.Attrs[0].Key != "benchmark" || v.Root.Attrs[0].Value != "BARNES" {
		t.Errorf("root attrs = %+v", v.Root.Attrs)
	}
	var sim *SpanView
	for i := range v.Root.Children {
		if v.Root.Children[i].Name == "simulating" {
			sim = &v.Root.Children[i]
		}
	}
	if sim == nil || len(sim.Children) != 1 || sim.Children[0].Name != "coherence_loop" {
		t.Fatalf("simulating subtree wrong: %+v", sim)
	}
	if d := sim.Children[0].DurationMS; d < 49.9 || d > 50.1 {
		t.Errorf("grafted child duration = %vms, want 50ms", d)
	}
}

func TestTracerRootEndClosesOpenChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.StartTrace("run-x", "run")
	root.Child("queued") // never explicitly ended
	root.End()
	v, _ := tr.Tree("run-x")
	if !v.Finished {
		t.Fatal("root not finished")
	}
	if v.Root.Children[0].End == nil {
		t.Error("open child not closed by root End")
	}
}

func TestTracerRestartReplacesTree(t *testing.T) {
	tr := NewTracer()
	first := tr.StartTrace("run-r", "run")
	first.Child("admitted")
	first.End()
	second := tr.StartTrace("run-r", "run")
	second.End()
	v, _ := tr.Tree("run-r")
	if len(v.Root.Children) != 0 {
		t.Errorf("restarted trace kept old children: %+v", v.Root.Children)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	s := tr.StartTrace("x", "run")
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// All of these must be safe no-ops on the nil span.
	c := s.Child("y")
	c.SetAttr("k", "v")
	c.ChildAt("z", time.Now(), time.Second)
	c.End()
	s.End()
	if _, ok := tr.Tree("x"); ok {
		t.Error("nil tracer returned a tree")
	}
	if tr.Len() != 0 {
		t.Error("nil tracer Len != 0")
	}
}

// TestConcurrentSpansRace exercises concurrent span start/finish/read —
// the pattern the engine produces when workers finish jobs while SSE
// readers snapshot traces. Run with -race.
func TestConcurrentSpansRace(t *testing.T) {
	tr := NewTracer()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				id := string(rune('a'+g)) + "-trace"
				root := tr.StartTrace(id, "run")
				c := root.Child("phase")
				c.SetAttr("i", "x")
				c.End()
				root.End()
				tr.Tree(id)
			}
		}(g)
	}
	// Concurrent readers over all traces.
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 400; i++ {
				for r := 0; r < 8; r++ {
					tr.Tree(string(rune('a'+r)) + "-trace")
				}
				tr.Len()
			}
		}()
	}
	for i := 0; i < 12; i++ {
		<-done
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestRuntimeMetricsLint(t *testing.T) {
	o := Nop()
	var b strings.Builder
	o.WriteRuntimeMetrics(&b)
	text := b.String()
	for _, fam := range []string{"lard_build_info", "lard_goroutines",
		"lard_heap_bytes", "lard_gc_pause_seconds_total", "lard_uptime_seconds"} {
		if !strings.Contains(text, "# TYPE "+fam) {
			t.Errorf("runtime metrics missing %s", fam)
		}
	}
	if errs := Lint(text); len(errs) > 0 {
		t.Fatalf("runtime metrics fail lint: %v", errs)
	}
	if o.Uptime() <= 0 {
		t.Error("Uptime not positive")
	}
}
