package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"lard"
	"lard/internal/resultstore"
	"lard/internal/store"
)

// TestRawResultEndpoints covers the export/import raw entry surface over
// HTTP: GET serves stored bytes, PUT validates and stores them on another
// node, DELETE drops them, and poisoned envelopes bounce.
func TestRawResultEndpoints(t *testing.T) {
	_, tsA := newTestServer(t, Config{Workers: 2})
	req := smallRun(21)
	key, err := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	code, v := post(t, tsA, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	poll(t, tsA, v.ID)

	// GET the raw entry.
	resp, err := http.Get(tsA.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw get = %d: %s", resp.StatusCode, raw)
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Key != key || len(env.Result) == 0 {
		t.Fatalf("raw entry malformed: %v %q", err, env.Key)
	}

	// PUT it into a second, empty node; the run becomes servable there
	// without a simulation.
	sB, tsB := newTestServer(t, Config{Workers: 1})
	putReq, _ := http.NewRequest(http.MethodPut, tsB.URL+"/v1/results/"+key, bytes.NewReader(raw))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("raw put = %d", putResp.StatusCode)
	}
	if code, v := post(t, tsB, req); code != http.StatusOK || !v.Cached {
		t.Fatalf("transplanted run not served from store: %d %+v", code, v)
	}
	if c := sB.store.Stats().Computes; c != 0 {
		t.Fatalf("node B simulated %d times after raw transplant", c)
	}

	// A foreign-key PUT is rejected.
	badKey := strings.Repeat("ab", 32)
	badReq, _ := http.NewRequest(http.MethodPut, tsB.URL+"/v1/results/"+badKey, bytes.NewReader(raw))
	badResp, _ := http.DefaultClient.Do(badReq)
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign-key put = %d, want 400", badResp.StatusCode)
	}

	// DELETE drops the entry; the raw GET then answers 404.
	delReq, _ := http.NewRequest(http.MethodDelete, tsB.URL+"/v1/results/"+key, nil)
	delResp, _ := http.DefaultClient.Do(delReq)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", delResp.StatusCode)
	}
	gone, _ := http.Get(tsB.URL + "/v1/results/" + key)
	io.Copy(io.Discard, gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted entry get = %d, want 404", gone.StatusCode)
	}
}

// TestResultsPaging covers GET /v1/results paging and the keys-only
// listing.
func TestResultsPaging(t *testing.T) {
	st, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Five distinct stored runs, via the facade so specs are real.
	for seed := uint64(1); seed <= 5; seed++ {
		o := lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed}
		if _, _, err := lard.RunWithStore(st, "BARNES", lard.SNUCA(), o); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Store: st, Workers: 1})

	page := func(q string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	code, m := page("?limit=2&offset=3")
	if code != http.StatusOK {
		t.Fatalf("paged index = %d", code)
	}
	var count int
	var rows []resultstore.IndexEntry
	json.Unmarshal(m["count"], &count)
	json.Unmarshal(m["results"], &rows)
	if count != 5 || len(rows) != 2 {
		t.Fatalf("page = %d rows of %d total, want 2 of 5", len(rows), count)
	}

	code, m = page("?keys=1")
	var keys []string
	json.Unmarshal(m["keys"], &keys)
	if code != http.StatusOK || len(keys) != 5 {
		t.Fatalf("keys listing = %d, %d keys", code, len(keys))
	}
	for _, k := range keys {
		if len(k) != 64 {
			t.Fatalf("malformed key %q", k)
		}
	}

	if code, _ := page("?limit=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
	if code, _ := page("?offset=-4"); code != http.StatusBadRequest {
		t.Fatalf("negative offset = %d, want 400", code)
	}
}

// faultyDisk wraps a Disk so backend reads or writes can be made to fail
// on demand.
type faultyDisk struct {
	*store.Disk
	failGets, failPuts atomic.Bool
}

var errDiskFault = errors.New("injected disk fault")

func (d *faultyDisk) Get(key string) ([]byte, bool, error) {
	if d.failGets.Load() {
		return nil, false, errDiskFault
	}
	return d.Disk.Get(key)
}

func (d *faultyDisk) Put(key string, val []byte) error {
	if d.failPuts.Load() {
		return errDiskFault
	}
	return d.Disk.Put(key, val)
}

// newFaultyServer starts a server over a store whose disk can be made to
// fail.
func newFaultyServer(t *testing.T) (*Server, *httptest.Server, *faultyDisk) {
	t.Helper()
	d, err := store.NewDisk("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fd := &faultyDisk{Disk: d}
	st, err := resultstore.NewWithBackend(fd, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st, Workers: 1})
	return s, ts, fd
}

// TestBackendReadErrorIs500: a failing disk read on the raw entry path is
// the server's fault — a 500 with a JSON error body — never a 404 that
// would tell an exporter the entry does not exist.
func TestBackendReadErrorIs500(t *testing.T) {
	_, ts, fd := newFaultyServer(t)
	req := smallRun(41)
	key, _ := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	_, v := post(t, ts, req)
	if done := poll(t, ts, v.ID); done.Status != StatusDone {
		t.Fatalf("run = %s (%s)", done.Status, done.Error)
	}

	fd.failGets.Store(true)
	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, errDiskFault.Error()) {
		t.Fatalf("raw get over a failing disk = %d %q, want 500 naming the fault", resp.StatusCode, body.Error)
	}
}

// TestFailedPersistIsNotCached: a run whose store write failed is reported
// failed, and resubmitting it simulates again — the result it computed
// was never stored, so it must not come back as cached.
func TestFailedPersistIsNotCached(t *testing.T) {
	s, ts, fd := newFaultyServer(t)
	req := smallRun(42)
	key, _ := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)

	fd.failPuts.Store(true)
	_, v := post(t, ts, req)
	if failed := poll(t, ts, v.ID); failed.Status != StatusFailed {
		t.Fatalf("run over a failing disk = %s, want failed", failed.Status)
	}

	fd.failPuts.Store(false)
	code, v := post(t, ts, req)
	if code == http.StatusOK || v.Cached {
		t.Fatalf("re-POST of a run that was never stored = %d cached=%v", code, v.Cached)
	}
	done := poll(t, ts, v.ID)
	if done.Status != StatusDone || done.Cached {
		t.Fatalf("retry = %s cached=%v, want a fresh simulation", done.Status, done.Cached)
	}
	if c := s.store.Stats().Computes; c != 2 {
		t.Fatalf("computes = %d, want 2 (the retry must simulate)", c)
	}
	if _, ok, err := fd.Disk.Get(key); err != nil || !ok {
		t.Fatalf("retried run not on disk: ok=%v err=%v", ok, err)
	}
}

// TestBackendMetricsOneRow: a disk-backed server reports its backend as
// one row per lard_backend_* family, in /metrics and /stats alike.
func TestBackendMetricsOneRow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v := post(t, ts, smallRun(43))
	poll(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"lard_backend_entries", "lard_backend_gets_total", "lard_backend_puts_total"} {
		rows := grepLines(string(mb), family+"{")
		if want := fmt.Sprintf("%s{backend=%q,kind=%q}", family, "disk", "disk"); strings.Count(rows, "\n") != 0 || !strings.HasPrefix(rows, want) {
			t.Errorf("%s rows:\n%s\nwant one %s row", family, rows, want)
		}
	}
	if !strings.Contains(string(mb), `lard_backend_entries{backend="disk",kind="disk"} 1`) {
		t.Errorf("entry gauge:\n%s", grepLines(string(mb), "lard_backend_entries"))
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sv struct {
		Backend map[string]any `json:"backend"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&sv)
	sresp.Body.Close()
	if err != nil || sv.Backend == nil || sv.Backend["kind"] != "disk" || sv.Backend["entries"] != float64(1) {
		t.Fatalf("/stats backend = %v (%v)", sv.Backend, err)
	}
}

// grepLines returns the lines of s containing substr (test diagnostics).
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
