package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// submitBodies are one valid body per submission endpoint.
var submitBodies = map[string]string{
	"/v1/runs":      `{"benchmark":"BARNES","scheme":{"kind":"S-NUCA"},"options":{"cores":16,"ops_scale":0.02}}`,
	"/v1/campaigns": `{"benchmarks":["BARNES"],"schemes":[{"kind":"S-NUCA"}],"options":{"cores":16,"ops_scale":0.02}}`,
}

// postRaw posts body to path and returns the status code.
func postRaw(t *testing.T, ts *httptest.Server, path string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// requireNothingEnqueued fails unless the server holds no job and no
// campaign and has simulated nothing.
func requireNothingEnqueued(t *testing.T, s *Server) {
	t.Helper()
	st := s.Engine().Stats()
	n := 0
	for _, c := range st.Jobs {
		n += c
	}
	if n != 0 || st.Campaigns != 0 || s.store.Stats().Computes != 0 {
		t.Fatalf("rejected request left work behind: jobs %v, campaigns %d, computes %d",
			st.Jobs, st.Campaigns, s.store.Stats().Computes)
	}
}

// TestSubmitRejectsTrailingData pins strict decoding: a valid body
// followed by more data is a 400 on both submission endpoints, and
// nothing is enqueued. Trailing whitespace alone is fine.
func TestSubmitRejectsTrailingData(t *testing.T) {
	for path, body := range submitBodies {
		s, ts := newTestServer(t, Config{Workers: 1})
		for _, tail := range []string{"{garbage", "{}", `"x"`, "]"} {
			if code := postRaw(t, ts, path, strings.NewReader(body+tail)); code != http.StatusBadRequest {
				t.Errorf("%s + %q: code = %d, want 400", path, tail, code)
			}
		}
		requireNothingEnqueued(t, s)
		if code := postRaw(t, ts, path, strings.NewReader(body+" \n")); code != http.StatusAccepted {
			t.Errorf("%s + whitespace: code = %d, want 202", path, code)
		}
	}
}

// endless yields '{"benchmark":"' and then spaces forever, counting what
// it hands out. The client transport reads it on its own goroutine.
type endless struct{ n atomic.Int64 }

func (e *endless) Read(p []byte) (int, error) {
	head := `{"benchmark":"`
	n := e.n.Add(int64(len(p))) - int64(len(p))
	for i := range p {
		if k := n + int64(i); k < int64(len(head)) {
			p[i] = head[k]
		} else {
			p[i] = ' '
		}
	}
	return len(p), nil
}

// TestSubmitBodyTooLarge pins the body bound: a 32 MiB body is a 413 on
// both submission endpoints, the server stops reading it near
// maxRequestBody, and nothing is enqueued.
func TestSubmitBodyTooLarge(t *testing.T) {
	for path := range submitBodies {
		s, ts := newTestServer(t, Config{Workers: 1})
		src := &endless{}
		body := io.LimitReader(src, 32<<20)
		if code := postRaw(t, ts, path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code = %d, want 413", path, code)
		}
		if src.n.Load() >= 32<<20 {
			t.Errorf("%s: the server read the whole 32 MiB body", path)
		}
		requireNothingEnqueued(t, s)
	}
}

// FuzzDecodeRunRequest drives decodeBody with arbitrary POST /v1/runs
// bodies. It never panics and answers 400 or 413 on failure. A body it
// accepts is one valid JSON value within maxRequestBody, and the decoded
// request survives a re-encode and a second decode unchanged.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Add([]byte(submitBodies["/v1/runs"]))
	f.Add([]byte(submitBodies["/v1/runs"] + "{garbage"))
	f.Add([]byte(`{"benchmark":"BARNES","scheme":{"kind":"RT","rt":3,"classifier_k":3,"cluster_size":1},"options":{"seed":7}}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(b []byte) (RunRequest, int) {
			var req RunRequest
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(b))
			if !decodeBody(w, r, "request", &req) {
				return req, w.Code
			}
			return req, 0
		}
		req, code := decode(body)
		switch code {
		case 0:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("failure code %d, want 400 or 413", code)
		}
		if len(body) > maxRequestBody || !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value within the bound: %q", body)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, code := decode(again)
		if code != 0 || !reflect.DeepEqual(req, req2) {
			t.Fatalf("re-encoded request %s decodes to %+v (code %d), want %+v", again, req2, code, req)
		}
	})
}
