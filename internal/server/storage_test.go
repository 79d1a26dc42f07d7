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

// TestResultsOffsetPastTotal pins the offset both /v1/results listings
// answer when the request skips past every entry: the offset the store's
// page applied, which is the total, on an empty store and a non-empty one.
func TestResultsOffsetPastTotal(t *testing.T) {
	full, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		o := lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed}
		if _, _, err := lard.RunWithStore(full, "BARNES", lard.SNUCA(), o); err != nil {
			t.Fatal(err)
		}
	}
	empty, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store *resultstore.Store
		total int
	}{{"empty", empty, 0}, {"two entries", full, 2}} {
		_, ts := newTestServer(t, Config{Store: tc.store, Workers: 1})
		for _, q := range []string{"?offset=7&limit=3", "?keys=1&offset=7&limit=3"} {
			resp, err := http.Get(ts.URL + "/v1/results" + q)
			if err != nil {
				t.Fatal(err)
			}
			var page struct {
				Count   int               `json:"count"`
				Offset  int               `json:"offset"`
				Keys    []string          `json:"keys"`
				Results []json.RawMessage `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d, decode error %v", tc.name, q, resp.StatusCode, err)
			}
			if page.Count != tc.total || page.Offset != tc.total || len(page.Keys)+len(page.Results) != 0 {
				t.Errorf("%s %s: count %d, offset %d, %d rows; want count %d, offset %d, no rows",
					tc.name, q, page.Count, page.Offset, len(page.Keys)+len(page.Results), tc.total, tc.total)
			}
		}
	}
}

// faultyDisk wraps a Disk so backend reads or writes can be made to fail
// on demand, and counts the Get and Put calls the store makes, failed or
// not.
type faultyDisk struct {
	*resultstore.Disk
	failGets, failPuts atomic.Bool
	gets, puts         atomic.Int64
}

var errDiskFault = errors.New("injected disk fault")

func (d *faultyDisk) Get(key string) ([]byte, bool, error) {
	d.gets.Add(1)
	if d.failGets.Load() {
		return nil, false, errDiskFault
	}
	return d.Disk.Get(key)
}

func (d *faultyDisk) Put(key string, val []byte) error {
	d.puts.Add(1)
	if d.failPuts.Load() {
		return errDiskFault
	}
	return d.Disk.Put(key, val)
}

// newFaultyServer starts a server over a store whose disk can be made to
// fail.
func newFaultyServer(t *testing.T) (*Server, *httptest.Server, *faultyDisk) {
	t.Helper()
	d, err := resultstore.NewDisk(t.TempDir())
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

// TestStoreOpCountsMatchDiskCalls: the store-op histogram is the one
// count of disk calls. Across a cold run, a memory hit, a raw export, a
// failed write and a read error, lard_store_op_seconds_count{op="get"}
// and {op="put"} equal the Get and Put calls the disk itself saw.
func TestStoreOpCountsMatchDiskCalls(t *testing.T) {
	_, ts, fd := newFaultyServer(t)
	req := smallRun(44)
	key, _ := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	_, v := post(t, ts, req)
	if done := poll(t, ts, v.ID); done.Status != StatusDone {
		t.Fatalf("run = %s (%s)", done.Status, done.Error)
	}
	if code, _ := post(t, ts, req); code != http.StatusOK {
		t.Fatalf("cached re-POST = %d", code)
	}
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/v1/results/" + key)
	fd.failPuts.Store(true)
	_, v = post(t, ts, smallRun(45))
	if failed := poll(t, ts, v.ID); failed.Status != StatusFailed {
		t.Fatalf("run over a failing disk = %s, want failed", failed.Status)
	}
	fd.failGets.Store(true)
	get("/v1/results/" + key)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for op, calls := range map[string]int64{"get": fd.gets.Load(), "put": fd.puts.Load()} {
		if calls < 2 {
			t.Fatalf("disk saw %d %s calls; the scenario should make at least 2", calls, op)
		}
		want := fmt.Sprintf("lard_store_op_seconds_count{op=%q} %d", op, calls)
		if !strings.Contains(string(mb), want+"\n") {
			t.Errorf("want %s, got:\n%s", want, grepLines(string(mb), "lard_store_op_seconds_count"))
		}
	}
	if strings.Contains(string(mb), "backend=") || strings.Contains(string(mb), "lard_backend_") {
		t.Errorf("/metrics still carries a backend label or lard_backend_* family:\n%s", grepLines(string(mb), "backend"))
	}
}

// TestStoreDiskEntries: the disk's entry count is one unlabeled gauge on
// /metrics and store.disk_entries on /stats.
func TestStoreDiskEntries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for seed := uint64(46); seed <= 47; seed++ {
		_, v := post(t, ts, smallRun(seed))
		poll(t, ts, v.ID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "\nlard_store_disk_entries 2\n") {
		t.Errorf("entry gauge:\n%s", grepLines(string(mb), "lard_store_disk_entries"))
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sv map[string]json.RawMessage
	err = json.NewDecoder(sresp.Body).Decode(&sv)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sv["backend"]; ok {
		t.Error("/stats still carries a backend object")
	}
	var store struct {
		DiskEntries *int `json:"disk_entries"`
	}
	if err := json.Unmarshal(sv["store"], &store); err != nil || store.DiskEntries == nil || *store.DiskEntries != 2 {
		t.Fatalf("/stats store = %s (%v), want disk_entries 2", sv["store"], err)
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
