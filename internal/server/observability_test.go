package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lard/internal/obs"
	"lard/internal/resultstore"
)

// tracedTestServer is newTestServer with run tracing enabled — the
// configuration the acceptance tests exercise.
func tracedTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Obs = obs.New(obs.Options{Tracing: true})
	return newTestServer(t, cfg)
}

// TestMetricsConformance runs real traffic through the server and then
// requires the full /metrics body to pass the Prometheus text-format
// linter: HELP before TYPE, contiguous families, no duplicates, and for
// every histogram ascending cumulative buckets with a +Inf bucket equal
// to _count. All four latency families plus the process-level families
// must be present.
func TestMetricsConformance(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 2})

	// Generate traffic on several routes so the histograms hold samples:
	// a real run (run-duration, queue-wait, store-op), its poll
	// (http), and a 404 (the error-path code label).
	_, v := post(t, ts, smallRun(1))
	poll(t, ts, v.ID)
	if resp, err := http.Get(ts.URL + "/v1/runs/nope"); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}

	text := string(body)
	if errs := obs.Lint(text); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
		t.Fatalf("/metrics failed exposition lint (%d errors)", len(errs))
	}

	for _, family := range []string{
		"lard_run_duration_seconds",
		"lard_queue_wait_seconds",
		"lard_store_op_seconds",
		"lard_http_request_seconds",
		"lard_build_info",
		"lard_goroutines",
		"lard_heap_bytes",
		"lard_gc_pause_seconds_total",
		"lard_uptime_seconds",
		// -trace records timelines too, so their registry families render.
		"lard_timeline_runs_total",
		"lard_timeline_retained",
		"lard_timeline_epochs",
		"lard_timeline_samples",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}

	// The run that completed must show up as a run-duration sample and the
	// disk-backed store as store-op samples.
	for _, sample := range []string{
		`lard_run_duration_seconds_count 1`,
		`lard_store_op_seconds_count{`,
		`lard_http_request_seconds_bucket{`,
	} {
		if !strings.Contains(text, sample) {
			t.Errorf("expected %q in /metrics\n", sample)
		}
	}
	// Route labels come from the matched pattern, so every poll of
	// /v1/runs/<id> (and the 404 for the unknown id) lands in one series.
	if !strings.Contains(text, `route="GET /v1/runs/{id}"`) {
		t.Errorf("run-poll route label missing from lard_http_request_seconds")
	}
}

// TestCampaignTraceAcceptance is the tracing acceptance test: submit a
// real campaign over real HTTP with tracing enabled and require every
// member to answer GET /v1/runs/{id}/trace with a finished span tree
// whose simulating span carries a coherence_loop phase with non-zero
// duration, and whose spans carry no id key: spans are named by the
// run id and their own names.
func TestCampaignTraceAcceptance(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 2, QueueDepth: 8})

	code, v := postCampaign(t, ts, smallCampaign("BARNES", "DEDUP"))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	done := pollCampaign(t, ts, v.ID)
	if !done.Complete {
		t.Fatalf("campaign = %+v", done)
	}

	for _, m := range done.Members {
		resp, err := http.Get(ts.URL + "/v1/runs/" + m.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("member %s trace = %d", m.ID, resp.StatusCode)
		}
		var tree obs.TraceView
		if err := json.Unmarshal(body, &tree); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(body), `"id"`) {
			t.Errorf("member %s: trace carries an id key:\n%s", m.ID, body)
		}
		if !tree.Finished {
			t.Errorf("member %s (%s/%s): trace not finished", m.ID, m.Benchmark, m.Scheme)
		}
		if tree.Trace != m.ID {
			t.Errorf("trace id %q != member id %q", tree.Trace, m.ID)
		}
		loop, ok := findSpan(tree.Root, "coherence_loop")
		if !ok {
			t.Fatalf("member %s: no coherence_loop span in tree %+v", m.ID, tree.Root)
		}
		if loop.DurationMS <= 0 {
			t.Errorf("member %s: coherence_loop duration = %v, want > 0", m.ID, loop.DurationMS)
		}
		// The waterfall invariants: every span is closed, the root spans
		// the whole lifecycle, and the pipeline phases are all present.
		assertClosed(t, m.ID, tree.Root)
		for _, phase := range []string{"admitted", "queued", "simulating", "stored"} {
			if _, ok := findSpan(tree.Root, phase); !ok {
				t.Errorf("member %s: span %q missing", m.ID, phase)
			}
		}
	}
}

// TestTraceEndpointDisabled: without tracing, /trace and /timeline both
// 404 with a body that tells the operator how to turn them on, and
// /metrics renders no timeline family.
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	_, v := post(t, ts, smallRun(2))
	poll(t, ts, v.ID)

	for _, view := range []string{"trace", "timeline"} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/" + view)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with tracing off = %d, want 404", view, resp.StatusCode)
		}
		if !strings.Contains(string(body), "tracing is disabled on this server (start with -trace)") {
			t.Fatalf("%s 404 body %q should explain tracing is disabled and name -trace", view, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "lard_timeline_") {
		t.Fatalf("/metrics renders a timeline family with tracing off:\n%s", grepLines(string(body), "lard_timeline_"))
	}
}

// TestTimelineOfStoredRun: three traced servers share one store
// directory, and only the first simulates the run. The second answers a
// resubmission from the store, so it has a /trace but its /timeline is
// 404 with a body that says so. The third only GETs the run, so its job
// registry never holds the id: both /trace and /timeline answer that
// same 404, and the probe behind it counts no store hit. An id never
// seen keeps its own body.
func TestTimelineOfStoredRun(t *testing.T) {
	dir := t.TempDir()
	open := func() *resultstore.Store {
		st, err := resultstore.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	_, first := tracedTestServer(t, Config{Workers: 1, Store: open()})
	_, v := post(t, first, smallRun(3))
	poll(t, first, v.ID)

	_, second := tracedTestServer(t, Config{Workers: 1, Store: open()})
	code, cached := post(t, second, smallRun(3))
	if code != http.StatusOK || !cached.Cached {
		t.Fatalf("resubmit on a second server = %d cached=%v, want 200 cached", code, cached.Cached)
	}
	get := func(ts *httptest.Server, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	const fromStore = "served from the result store and never simulated on this server"
	if code, _ := get(second, "/v1/runs/"+v.ID+"/trace"); code != http.StatusOK {
		t.Fatalf("trace of the stored run = %d, want 200", code)
	}
	if code, body := get(second, "/v1/runs/"+v.ID+"/timeline"); code != http.StatusNotFound || !strings.Contains(body, fromStore) {
		t.Fatalf("timeline of the stored run = %d %q, want 404 naming the result store", code, body)
	}

	st := open()
	_, third := tracedTestServer(t, Config{Workers: 1, Store: st})
	if code, body := get(third, "/v1/runs/"+v.ID); code != http.StatusOK || !strings.Contains(body, `"cached": true`) {
		t.Fatalf("GET of the stored run on a third server = %d %q, want 200 cached", code, body)
	}
	hits := func() uint64 { s := st.Stats(); return s.MemHits + s.DiskHits }
	before := hits()
	for _, view := range []string{"trace", "timeline"} {
		if code, body := get(third, "/v1/runs/"+v.ID+"/"+view); code != http.StatusNotFound || !strings.Contains(body, fromStore) {
			t.Errorf("%s of a run only the store holds = %d %q, want 404 naming the result store", view, code, body)
		}
		if code, body := get(third, "/v1/runs/"+strings.Repeat("0", len(v.ID))+"/"+view); code != http.StatusNotFound || !strings.Contains(body, "(unknown id, or evicted)") {
			t.Errorf("%s of an unknown id = %d %q, want 404 (unknown id, or evicted)", view, code, body)
		}
	}
	if after := hits(); after != before {
		t.Errorf("store hits went %d -> %d: the /trace and /timeline probes must not count as hits", before, after)
	}
}

// TestStatsUptimeAndTracing: /stats carries process uptime and the
// tracing flag, and no separate telemetry flag.
func TestStatsUptimeAndTracing(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Tracing       bool    `json:"tracing"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["telemetry"]; ok {
		t.Error("/stats still carries a telemetry key; -trace is the one switch")
	}
	if view.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", view.UptimeSeconds)
	}
	if !view.Tracing {
		t.Error("tracing flag should be true on a traced server")
	}
}

// findSpan walks the span tree for the first span with the given name.
func findSpan(v obs.SpanView, name string) (obs.SpanView, bool) {
	if v.Name == name {
		return v, true
	}
	for _, c := range v.Children {
		if found, ok := findSpan(c, name); ok {
			return found, true
		}
	}
	return obs.SpanView{}, false
}

// assertClosed requires every span in the tree to have ended.
func assertClosed(t *testing.T, member string, v obs.SpanView) {
	t.Helper()
	if v.End == nil {
		t.Errorf("member %s: span %q never ended", member, v.Name)
	}
	for _, c := range v.Children {
		assertClosed(t, member, c)
	}
}

// TestSSEFramesCarryNoSpan pins the event wire format: with tracing on or
// off, no frame on a run topic or a campaign topic carries a "span" key.
// A frame's job and state already name its span in
// GET /v1/runs/{id}/trace: queued → "queued", running → "simulating", a
// terminal state → "stored".
func TestSSEFramesCarryNoSpan(t *testing.T) {
	for _, tracing := range []bool{false, true} {
		_, ts := newTestServer(t, Config{Workers: 2, Obs: obs.New(obs.Options{Tracing: tracing})})
		code, cv := postCampaign(t, ts, smallCampaign("BARNES"))
		if code != http.StatusAccepted {
			t.Fatalf("tracing=%v: campaign submit = %d", tracing, code)
		}
		final := pollCampaign(t, ts, cv.ID)
		topics := []string{"/v1/campaigns/" + cv.ID + "/events"}
		for _, m := range final.Members {
			topics = append(topics, "/v1/runs/"+m.ID+"/events")
		}
		for _, topic := range topics {
			lines := rawSSELines(t, ts.URL+topic)
			if len(lines) < 3 {
				t.Fatalf("tracing=%v %s: %d frames, want queued, running and a terminal one", tracing, topic, len(lines))
			}
			for _, line := range lines {
				var frame map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &frame); err != nil {
					t.Fatalf("tracing=%v %s: bad frame %q: %v", tracing, topic, line, err)
				}
				if _, ok := frame["span"]; ok {
					t.Fatalf("tracing=%v %s: frame carries a span key: %s", tracing, topic, line)
				}
			}
		}
	}
}
