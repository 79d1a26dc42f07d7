package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lard"
	"lard/internal/resultstore"
)

// newTestServer builds a started server over a fresh store and registers
// cleanup that verifies graceful shutdown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := resultstore.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("graceful shutdown failed: %v", err)
		}
	})
	return s, ts
}

// smallRun is a fast real request (16 cores, tiny trace).
func smallRun(seed uint64) RunRequest {
	return RunRequest{
		Benchmark: "BARNES",
		Scheme:    lard.LocalityAware(3),
		Options:   lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed},
	}
}

// post submits a run and decodes the job view.
func post(t *testing.T, ts *httptest.Server, req RunRequest) (int, JobView) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

// poll fetches a job until it leaves the queued/running states.
func poll(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never completed")
	return JobView{}
}

// TestLifecycle drives the happy path: submit, poll, result — then
// resubmits and requires a synchronous cache hit with the identical result
// and zero additional simulations.
func TestLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := smallRun(0)

	code, v := post(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh job status = %q", v.Status)
	}

	done := poll(t, ts, v.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("job = %+v", done)
	}
	if done.Result.Benchmark != "BARNES" || done.Result.CompletionCycles == 0 {
		t.Fatalf("bad result %+v", done.Result)
	}
	computes := s.store.Stats().Computes
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}

	// Resubmission is a synchronous cache hit: 200, cached, identical
	// result, no new simulation.
	code, again := post(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit = %d, want 200", code)
	}
	if again.Status != StatusDone || !again.Cached {
		t.Fatalf("cache-hit job = %+v", again)
	}
	if !reflect.DeepEqual(again.Result, done.Result) {
		t.Fatal("cache hit must return the identical result")
	}
	if got := s.store.Stats().Computes; got != computes {
		t.Fatalf("cache hit ran %d extra simulations", got-computes)
	}
}

// TestCacheHitAcrossRestart pins the disk backend: a new server over the
// same store directory answers a previously computed run without
// simulating.
func TestCacheHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, _ := resultstore.New(dir)
	_, ts1 := newTestServer(t, Config{Store: st1, Workers: 1})
	_, v := post(t, ts1, smallRun(7))
	first := poll(t, ts1, v.ID)

	st2, _ := resultstore.New(dir)
	s2, ts2 := newTestServer(t, Config{Store: st2, Workers: 1})
	code, hit := post(t, ts2, smallRun(7))
	if code != http.StatusOK || !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("restart hit = %d %+v", code, hit)
	}
	if !reflect.DeepEqual(hit.Result, first.Result) {
		t.Fatal("restarted server must serve the identical stored result")
	}
	if s2.store.Stats().Computes != 0 {
		t.Fatal("restarted server must not re-simulate")
	}
}

// blockingTestRun is a RunFunc that parks until release fires (or the run
// is cancelled), optionally announcing each start on started.
func blockingTestRun(started chan<- string, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, st *resultstore.Store, benchmark string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		if started != nil {
			started <- s.Label()
		}
		select {
		case <-release:
			return &lard.Result{Benchmark: benchmark, Scheme: s.Label(), CompletionCycles: 1}, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// mustJobView fetches a job snapshot from the engine.
func mustJobView(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	v, ok := s.Engine().Job(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	return v
}

// TestQueueBackpressure fills the worker and the queue with blocked jobs
// and requires the next submission to shed with 429.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Run: blockingTestRun(nil, release)})
	defer close(release)

	// Job 1 occupies the worker, job 2 the queue slot; distinct seeds keep
	// the content addresses distinct.
	_, v1 := post(t, ts, smallRun(1))
	// Wait until the worker picked job 1 up, freeing the queue slot order.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := mustJobView(t, s, v1.ID); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := post(t, ts, smallRun(2)); code != http.StatusAccepted {
		t.Fatalf("queued submit = %d, want 202", code)
	}
	code, _ := post(t, ts, smallRun(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", code)
	}
}

// TestDuplicateSubmitSharesJob submits the same run twice while it is in
// flight and requires one job, not two.
func TestDuplicateSubmitSharesJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, Run: blockingTestRun(started, release)})

	_, v1 := post(t, ts, smallRun(1))
	<-started
	code, v2 := post(t, ts, smallRun(1))
	if code != http.StatusAccepted || v2.ID != v1.ID {
		t.Fatalf("duplicate submit = %d id %s, want 202 with id %s", code, v2.ID, v1.ID)
	}
	close(release)
	done := poll(t, ts, v1.ID)
	if done.Status != StatusDone {
		t.Fatalf("job = %+v", done)
	}
	if len(started) != 0 {
		t.Fatal("duplicate submit must not start a second simulation")
	}
}

func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"bad JSON":       "{",
		"unknown field":  `{"benchmark":"BARNES","scheme":{"kind":"S-NUCA"},"bogus":1}`,
		"unknown bench":  `{"benchmark":"NOPE","scheme":{"kind":"S-NUCA"}}`,
		"unknown scheme": `{"benchmark":"BARNES","scheme":{"kind":"BOGUS"}}`,
		"unsquare mesh":  `{"benchmark":"BARNES","scheme":{"kind":"S-NUCA"},"options":{"cores":7}}`,
		"bad classifier": `{"benchmark":"BARNES","scheme":{"kind":"RT","rt":3,"classifier_k":99,"cluster_size":1},"options":{"cores":16}}`,
		"negative scale": `{"benchmark":"BARNES","scheme":{"kind":"S-NUCA"},"options":{"cores":16,"ops_scale":-1}}`,
		"overflow scale": `{"benchmark":"BARNES","scheme":{"kind":"S-NUCA"},"options":{"cores":16,"ops_scale":1e300}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/runs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestAuxEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var benches struct {
		Benchmarks []string `json:"benchmarks"`
	}
	err = json.NewDecoder(resp.Body).Decode(&benches)
	resp.Body.Close()
	if err != nil || len(benches.Benchmarks) != 21 {
		t.Fatalf("benchmarks = %d (%v), want 21", len(benches.Benchmarks), err)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sv statsView
	err = json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sv.Workers != 1 || sv.QueueCap != 2 {
		t.Fatalf("stats = %+v", sv)
	}
}

// TestShutdownFailsQueuedJobs verifies graceful shutdown: in-flight work
// finishes (workers joined, no goroutine leak under -race) and jobs still
// in the queue report failed.
func TestShutdownFailsQueuedJobs(t *testing.T) {
	st, _ := resultstore.New("")
	release := make(chan struct{})
	started := make(chan string, 1)
	srv, err := New(Config{Store: st, Workers: 1, QueueDepth: 2, Run: blockingTestRun(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, v1 := post(t, ts, smallRun(1))
	<-started
	_, v2 := post(t, ts, smallRun(2))

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	<-srv.Engine().Stopping() // wait until Shutdown has signalled the workers
	close(release)            // then let the in-flight job finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if v := mustJobView(t, srv, v1.ID); v.Status != StatusDone {
		t.Errorf("in-flight job = %q, want done", v.Status)
	}
	if v := mustJobView(t, srv, v2.ID); v.Status != StatusFailed {
		t.Errorf("queued job = %q, want failed", v.Status)
	}

	// A post-shutdown submission is refused.
	b, _ := json.Marshal(smallRun(3))
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit = %d, want 503", resp.StatusCode)
	}
}

// TestCompletedJobEviction bounds the finished-job registry: old completed
// jobs are evicted from the registry, but GET falls back to the store by
// content address, so a client polling an evicted id still receives the
// result instead of a bogus 404.
func TestCompletedJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxCompletedJobs: 2})

	_, v1 := post(t, ts, smallRun(1))
	first := poll(t, ts, v1.ID)
	for seed := uint64(2); seed <= 4; seed++ {
		_, v := post(t, ts, smallRun(seed))
		poll(t, ts, v.ID)
	}

	n := 0
	for _, c := range s.Engine().Stats().Jobs {
		n += c
	}
	_, stillThere := s.Engine().Job(v1.ID)
	if n > 2 {
		t.Fatalf("registry holds %d jobs, want <= 2", n)
	}
	if stillThere {
		t.Fatal("oldest job must have been evicted from the registry")
	}

	// GET on the evicted id answers from the store, not 404.
	resp, err := http.Get(ts.URL + "/v1/runs/" + v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	var evicted JobView
	err = json.NewDecoder(resp.Body).Decode(&evicted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted job GET = %d, want 200 via store fallback", resp.StatusCode)
	}
	if evicted.Status != StatusDone || !evicted.Cached || evicted.Result == nil {
		t.Fatalf("store-fallback view = %+v", evicted)
	}
	if !reflect.DeepEqual(evicted.Result, first.Result) {
		t.Fatal("store fallback must serve the original result")
	}
	if computes := s.store.Stats().Computes; computes != 4 {
		t.Fatalf("fallback must not simulate (computes = %d, want 4)", computes)
	}

	// A genuinely unknown id is still 404.
	resp, err = http.Get(ts.URL + "/v1/runs/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id GET = %d, want 404", resp.StatusCode)
	}

	// Resubmission of the evicted run is likewise a cache hit.
	code, hit := post(t, ts, smallRun(1))
	if code != http.StatusOK || !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("evicted run resubmit = %d %+v", code, hit)
	}
}

// TestRunRequestValidation pins the server-side RT guard: a decoded RT
// scheme without a threshold is rejected up front, never silently simulated
// at the default threshold.
func TestRunRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"benchmark":"BARNES","scheme":{"kind":"RT","classifier_k":3,"cluster_size":1},"options":{"cores":16}}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("RT-0 submit = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e["error"], "rt") {
		t.Fatalf("error %q should name the rt field", e["error"])
	}
}

// TestConfigValidation covers constructor errors and defaults.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a store must error")
	}
	st, _ := resultstore.New("")
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if w, q := s.Engine().Workers(), s.Engine().QueueCap(); w < 1 || q != 2*w {
		t.Fatalf("defaults: workers %d queue %d", w, q)
	}
}
