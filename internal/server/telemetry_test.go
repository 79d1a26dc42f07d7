package server

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lard"
	"lard/internal/obs"
)

// getTimeline fetches a run's timeline and decodes it together with the
// embedded error body the endpoint returns on 404.
func getTimeline(t *testing.T, ts *httptest.Server, id, query string) (int, obs.TimelineView, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/timeline" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		obs.TimelineView
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.TimelineView, body.Error
}

// seriesSum adds up one named series from a timeline view; gone=false
// fails the test.
func timelineSeriesSum(t *testing.T, v obs.TimelineView, name string) uint64 {
	t.Helper()
	for _, s := range v.Series {
		if s.Name != name {
			continue
		}
		var sum uint64
		for _, x := range s.Values {
			sum += x
		}
		return sum
	}
	t.Fatalf("series %q missing from timeline (have %d series)", name, len(v.Series))
	return 0
}

// TestTimelineNotFoundTriage pins the endpoint's 404 bodies to actionable
// causes: a server without -trace says so (the fix is a flag, not a
// different id), while a traced server distinguishes unknown ids.
func TestTimelineNotFoundTriage(t *testing.T) {
	_, plain := newTestServer(t, Config{Workers: 1})
	code, _, msg := getTimeline(t, plain, "whatever", "")
	if code != http.StatusNotFound || !strings.Contains(msg, "start with -trace") {
		t.Fatalf("plain server = %d %q, want 404 naming -trace", code, msg)
	}

	_, ts := tracedTestServer(t, Config{Workers: 1})
	code, _, msg = getTimeline(t, ts, "nope", "")
	if code != http.StatusNotFound || !strings.Contains(msg, "no timeline") {
		t.Fatalf("unknown id = %d %q, want 404 mentioning the missing timeline", code, msg)
	}
}

// TestTimelineEndpointJSONAndCSV drives one real run and requires both
// renderings of its timeline to be complete and conserved: the JSON view's
// ops series must sum to exactly the run's final operation count, and the
// CSV rendering must carry the same totals column for column.
func TestTimelineEndpointJSONAndCSV(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 1})
	_, v := post(t, ts, smallRun(7))
	done := poll(t, ts, v.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("run ended %q", done.Status)
	}

	code, tl, _ := getTimeline(t, ts, v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("timeline = %d, want 200", code)
	}
	if !tl.Finished || tl.Epochs < 2 {
		t.Fatalf("timeline finished=%v epochs=%d, want a finished multi-epoch record", tl.Finished, tl.Epochs)
	}
	if got := timelineSeriesSum(t, tl, "ops"); got != done.Result.Ops {
		t.Fatalf("ops series sums to %d, want the run's %d (epochs must conserve)", got, done.Result.Ops)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv timeline = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv Content-Type = %q", ct)
	}
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != tl.Epochs+1 {
		t.Fatalf("csv has %d rows, want header + %d epochs", len(rows), tl.Epochs)
	}
	opsCol := -1
	for i, h := range rows[0] {
		if h == "ops" {
			opsCol = i
		}
	}
	if opsCol < 0 {
		t.Fatalf("csv header %v lacks an ops column", rows[0])
	}
	var csvOps uint64
	for _, row := range rows[1:] {
		n, err := strconv.ParseUint(row[opsCol], 10, 64)
		if err != nil {
			t.Fatalf("bad ops cell %q: %v", row[opsCol], err)
		}
		csvOps += n
	}
	if csvOps != done.Result.Ops {
		t.Fatalf("csv ops column sums to %d, want %d", csvOps, done.Result.Ops)
	}

	// format=json names the default; any other format is a 400 that
	// lists the accepted values, not a silent JSON answer.
	if code, asJSON, _ := getTimeline(t, ts, v.ID, "?format=json"); code != http.StatusOK || asJSON.Epochs != tl.Epochs {
		t.Fatalf("format=json = %d with %d epochs, want 200 with %d", code, asJSON.Epochs, tl.Epochs)
	}
	for _, bad := range []string{"CSV", "xml"} {
		code, _, msg := getTimeline(t, ts, v.ID, "?format="+bad)
		if code != http.StatusBadRequest || !strings.Contains(msg, "json") || !strings.Contains(msg, "csv") {
			t.Fatalf("format=%s = %d %q, want 400 naming json and csv", bad, code, msg)
		}
	}
}

// TestCampaignTimelinesConserved is the acceptance end-to-end: a real
// campaign over HTTP where every member's timeline must show at least two
// epochs of non-zero coherence activity, and each member's ops series must
// sum to exactly that member's final sim result — the flight recorder may
// decimate, but it may never lose or invent work.
func TestCampaignTimelinesConserved(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 2})
	code, cv := postCampaign(t, ts, smallCampaign("BARNES", "DEDUP"))
	if code != http.StatusAccepted {
		t.Fatalf("campaign submit = %d", code)
	}
	final := pollCampaign(t, ts, cv.ID)
	if !final.Complete || final.Total != 4 {
		t.Fatalf("campaign ended %+v", final.Counts)
	}

	for _, m := range final.Members {
		member := poll(t, ts, m.ID)
		if member.Result == nil {
			t.Fatalf("member %s has no result", m.ID)
		}
		code, tl, msg := getTimeline(t, ts, m.ID, "")
		if code != http.StatusOK {
			t.Fatalf("member %s timeline = %d %q", m.ID, code, msg)
		}
		if !tl.Finished || tl.Epochs < 2 {
			t.Fatalf("member %s: finished=%v epochs=%d, want a finished multi-epoch timeline",
				m.ID, tl.Finished, tl.Epochs)
		}
		if got := timelineSeriesSum(t, tl, "ops"); got != member.Result.Ops {
			t.Fatalf("member %s: ops sum %d != result %d", m.ID, got, member.Result.Ops)
		}
		var coherence uint64
		for _, s := range []string{"miss_l1_hit", "miss_llc_replica_hit", "miss_llc_home_hit", "miss_offchip"} {
			coherence += timelineSeriesSum(t, tl, s)
		}
		if coherence == 0 {
			t.Fatalf("member %s: coherence counters all zero across %d epochs", m.ID, tl.Epochs)
		}
	}
}

// rawSSELines drains one event stream and returns the raw `data:` payload
// lines up to the stream's close, which follows the topic's terminal
// frame. Byte-level capture is the point: decoded events can compare
// equal while the wire bytes drift (field order, pointer identity), the
// replay contract is about bytes, and decoding into Event would drop an
// unknown key.
func rawSSELines(t *testing.T, url string) []string {
	t.Helper()
	c := openSSE(t, url)
	defer c.close()
	got := make(chan []string, 1)
	go func() {
		var lines []string
		for c.sc.Scan() {
			if line := c.sc.Text(); strings.HasPrefix(line, "data: ") {
				lines = append(lines, strings.TrimPrefix(line, "data: "))
			}
		}
		got <- lines
	}()
	var lines []string
	select {
	case lines = <-got:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream %s did not close in 30s", url)
	}
	var last Event
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || !last.Terminal {
		t.Fatalf("stream %s closed after %d events without a terminal one", url, len(lines))
	}
	return lines
}

// TestRunSSEReplayByteEqual pins the replay guarantee on a traced
// server: a subscriber that attaches after the run finished must receive
// the same `data:` payload bytes as one that watched live, interior
// progress frames included, and no event carries an "epoch" payload —
// the timeline endpoint is the one way telemetry leaves a run.
func TestRunSSEReplayByteEqual(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 1})
	_, v := post(t, ts, smallRun(13))
	url := ts.URL + "/v1/runs/" + v.ID + "/events"

	live := rawSSELines(t, url)
	poll(t, ts, v.ID)
	replay := rawSSELines(t, url)

	if len(replay) != len(live) {
		t.Fatalf("replay has %d events, live saw %d (small runs fit history whole)", len(replay), len(live))
	}
	var sawProgress bool
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("event %d differs:\nlive:   %s\nreplay: %s", i, live[i], replay[i])
		}
		var ev struct {
			Event
			Epoch json.RawMessage `json:"epoch"`
		}
		if err := json.Unmarshal([]byte(live[i]), &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Epoch != nil {
			t.Fatalf("event %d carries an epoch payload: %s", i, live[i])
		}
		if !ev.Terminal && ev.Progress > 0 && ev.Progress < 1 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("no interior progress frame crossed the wire; the byte-equal check proved little")
	}
}

// TestTimelineConcurrentReads hammers the timeline endpoint from many
// goroutines while the run is still writing epochs — the race the -race CI
// lane exists to catch. Mid-run reads may 200 (a partial snapshot) or 404
// (not yet attached); either way they must decode cleanly, and the final
// read must be finished and conserved.
func TestTimelineConcurrentReads(t *testing.T) {
	_, ts := tracedTestServer(t, Config{Workers: 1})
	_, v := post(t, ts, RunRequest{
		Benchmark: "BARNES",
		Scheme:    lard.LocalityAware(3),
		Options:   lard.Options{Cores: 16, OpsScale: 0.5, Seed: 17},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/timeline")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var tl obs.TimelineView
					if err := json.Unmarshal(body, &tl); err != nil {
						t.Errorf("mid-run snapshot undecodable: %v", err)
						return
					}
				case http.StatusNotFound:
					// Raced the attach; fine.
				default:
					t.Errorf("mid-run timeline = %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	done := poll(t, ts, v.ID)
	close(stop)
	wg.Wait()
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("run ended %q", done.Status)
	}
	code, tl, _ := getTimeline(t, ts, v.ID, "")
	if code != http.StatusOK || !tl.Finished {
		t.Fatalf("final timeline = %d finished=%v", code, tl.Finished)
	}
	if got := timelineSeriesSum(t, tl, "ops"); got != done.Result.Ops {
		t.Fatalf("post-race ops sum %d != result %d", got, done.Result.Ops)
	}
}
