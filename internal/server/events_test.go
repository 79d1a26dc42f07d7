package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"lard"
	"lard/internal/resultstore"
)

// sseClient consumes one Server-Sent Events stream over real HTTP.
type sseClient struct {
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

// openSSE attaches to an event stream; the returned client must be closed.
func openSSE(t *testing.T, url string) *sseClient {
	t.Helper()
	return openSSEAfter(t, url, "")
}

// openSSEAfter is openSSE with a Last-Event-ID header, unless lastID is "".
func openSSEAfter(t *testing.T, url, lastID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("events stream = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &sseClient{resp: resp, sc: sc, cancel: cancel}
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next returns the next event frame, skipping heartbeats; ok=false at
// stream end.
func (c *sseClient) next(t *testing.T) (Event, bool) {
	t.Helper()
	for c.sc.Scan() {
		line := c.sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id: lines, heartbeat comments, blank separators
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		return ev, true
	}
	return Event{}, false
}

// collect drains the stream until done says stop, with a deadline.
func (c *sseClient) collect(t *testing.T, timeout time.Duration, done func(Event) bool) []Event {
	t.Helper()
	var events []Event
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			ev, ok := c.next(t)
			if !ok {
				return
			}
			events = append(events, ev)
			if done(ev) {
				return
			}
		}
	}()
	select {
	case <-finished:
		return events
	case <-time.After(timeout):
		c.cancel()
		<-finished
		t.Fatalf("stream did not finish in %v; %d events so far", timeout, len(events))
		return nil
	}
}

// TestCampaignSSEEndToEnd is this PR's acceptance test: a Figure-style
// campaign submitted over POST /v1/campaigns, watched over a real HTTP SSE
// stream — ordered per-member lifecycle events, at least one strictly
// interior instructions-retired progress event per member, one terminal
// event per member, a campaign-level completion event — and byte-equal
// replayed history for a second subscriber attaching after the fact.
func TestCampaignSSEEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, SSEHeartbeat: 50 * time.Millisecond})
	spec := smallCampaign("BARNES", "DEDUP")

	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}

	url := ts.URL + "/v1/campaigns/" + v.ID + "/events"
	c := openSSE(t, url)
	defer c.close()
	events := c.collect(t, 60*time.Second, func(ev Event) bool { return ev.Terminal && ev.Job == "" })

	// Per-member checks: ordered seqs; queued -> running -> interior
	// progress -> terminal done for all four members.
	type memberTrace struct {
		interior  bool
		terminals int
		last      string
	}
	members := map[string]*memberTrace{}
	lastSeq := uint64(0)
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq went backwards: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Campaign != v.ID {
			t.Fatalf("event names foreign campaign: %+v", ev)
		}
		if ev.Job == "" {
			continue // the campaign-level completion frame
		}
		m := members[ev.Job]
		if m == nil {
			m = &memberTrace{}
			members[ev.Job] = m
			if ev.State != StatusQueued && ev.State != StatusDone {
				t.Fatalf("member %s first event = %q", ev.Job, ev.State)
			}
		}
		if ev.State == StatusRunning && ev.Progress > 0 && ev.Progress < 1 {
			m.interior = true
		}
		if ev.Terminal {
			m.terminals++
			m.last = ev.State
		}
	}
	if len(members) != 4 {
		t.Fatalf("events cover %d members, want 4", len(members))
	}
	for id, m := range members {
		if !m.interior {
			t.Errorf("member %s: no interior progress event (0 < p < 1)", id)
		}
		if m.terminals != 1 || m.last != StatusDone {
			t.Errorf("member %s: %d terminal events, last %q", id, m.terminals, m.last)
		}
	}
	final := events[len(events)-1]
	if final.State != StatusDone || final.Progress != 1 {
		t.Fatalf("campaign completion frame = %+v", final)
	}

	// A late subscriber replays the history: same events, same order
	// (modulo the bounded history window, which is larger than this run).
	c2 := openSSE(t, url)
	defer c2.close()
	replay := c2.collect(t, 30*time.Second, func(ev Event) bool { return ev.Terminal && ev.Job == "" })
	if len(replay) != len(events) {
		t.Fatalf("replay = %d events, want %d", len(replay), len(events))
	}
	for i := range replay {
		if replay[i] != events[i] {
			t.Fatalf("replay[%d] = %+v != live %+v", i, replay[i], events[i])
		}
	}

	// The run-level stream of one member replays too, ending at its own
	// terminal event.
	c3 := openSSE(t, ts.URL+"/v1/runs/"+v.Members[0].ID+"/events")
	defer c3.close()
	runEvents := c3.collect(t, 30*time.Second, func(ev Event) bool { return ev.Terminal })
	if len(runEvents) < 3 { // queued, running, ... done
		t.Fatalf("run stream = %d events, want full lifecycle", len(runEvents))
	}
	if runEvents[len(runEvents)-1].State != StatusDone {
		t.Fatalf("run stream terminal = %+v", runEvents[len(runEvents)-1])
	}
}

// TestRunCancellationEndToEnd cancels an in-flight REAL simulation over
// HTTP: DELETE /v1/runs/{id} yields a cancelled terminal event on the SSE
// stream and the worker slot is reclaimed (pool depth returns to idle in
// /stats).
func TestRunCancellationEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SSEHeartbeat: 50 * time.Millisecond})
	req := RunRequest{
		Benchmark: "BARNES",
		Scheme:    lard.SNUCA(),
		Options:   lard.Options{Cores: 16, OpsScale: 2.0}, // seconds of work
	}
	code, v := post(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	c := openSSE(t, ts.URL+"/v1/runs/"+v.ID+"/events")
	defer c.close()
	// Wait until the simulation demonstrably progresses, then cancel.
	c.collect(t, 30*time.Second, func(ev Event) bool {
		return ev.State == StatusRunning && ev.Progress > 0 && ev.Progress < 1
	})
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+v.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", delResp.StatusCode)
	}

	tail := c.collect(t, 30*time.Second, func(ev Event) bool { return ev.Terminal })
	final := tail[len(tail)-1]
	if final.State != StatusCancelled {
		t.Fatalf("terminal state = %q, want cancelled", final.State)
	}

	// Pool drains back to idle and the cancellation is visible in /stats.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sv statsView
		err = json.NewDecoder(resp.Body).Decode(&sv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sv.Busy == 0 && sv.QueueLen == 0 {
			if sv.Engine.Cancellations != 1 {
				t.Fatalf("cancellations = %d, want 1", sv.Engine.Cancellations)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never idled: %+v", sv)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A second DELETE answers 409: the job is terminal.
	delReq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+v.ID, nil)
	delResp2, _ := http.DefaultClient.Do(delReq2)
	delResp2.Body.Close()
	if delResp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409", delResp2.StatusCode)
	}
}

// TestSSEClientDisconnectMidCampaign pins subscriber cleanup: a client
// that vanishes mid-stream is detached — the engine's subscriber gauge
// returns to zero — while the campaign itself keeps running to completion.
func TestSSEClientDisconnectMidCampaign(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Run: blockingTestRun(started, release), SSEHeartbeat: 10 * time.Millisecond})

	code, v := postCampaign(t, ts, smallCampaign("BARNES"))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-started // campaign is mid-flight

	c := openSSE(t, ts.URL+"/v1/campaigns/"+v.ID+"/events")
	// Wait until the server demonstrably registered the subscription.
	deadline := time.Now().Add(10 * time.Second)
	for s.Engine().EventStats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.close() // client disconnects mid-campaign

	for s.Engine().EventStats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber leaked after disconnect: %+v", s.Engine().EventStats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The campaign still completes.
	close(release)
	done := pollCampaign(t, ts, v.ID)
	if !done.Complete {
		t.Fatalf("campaign = %+v", done)
	}
}

// TestRunEventsStoreFallback pins the evicted-id path: an id the registry
// forgot but the store remembers streams one synthetic terminal frame.
func TestRunEventsStoreFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxCompletedJobs: 1})
	_, v1 := post(t, ts, smallRun(1))
	poll(t, ts, v1.ID)
	for seed := uint64(2); seed <= 3; seed++ {
		_, v := post(t, ts, smallRun(seed))
		poll(t, ts, v.ID)
	}
	if _, ok := s.Engine().Job(v1.ID); ok {
		t.Fatal("setup: job 1 was not evicted")
	}

	c := openSSE(t, ts.URL+"/v1/runs/"+v1.ID+"/events")
	defer c.close()
	events := c.collect(t, 10*time.Second, func(ev Event) bool { return ev.Terminal })
	if len(events) != 1 {
		t.Fatalf("fallback stream = %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.State != StatusDone || !ev.Cached || ev.Progress != 1 || ev.Job != v1.ID {
		t.Fatalf("fallback frame = %+v", ev)
	}

	// A genuinely unknown id is 404.
	resp, err := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("ab", 32) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id events = %d, want 404", resp.StatusCode)
	}
}

// newStoreWithRuns builds a disk store holding n distinct stored runs.
func newStoreWithRuns(t *testing.T, n int) (*resultstore.Store, error) {
	t.Helper()
	st, err := resultstore.New(t.TempDir())
	if err != nil {
		return nil, err
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		o := lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed}
		if _, _, err := lard.RunWithStore(st, "BARNES", lard.SNUCA(), o); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// TestResultsKeysPaging pins the satellite bugfix: the ?keys=1 view
// honors limit/offset with validated parameters, exactly like the index
// view.
func TestResultsKeysPaging(t *testing.T) {
	st, err := newStoreWithRuns(t, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Workers: 1})

	page := func(q string) (int, int, []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Count int      `json:"count"`
			Keys  []string `json:"keys"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Count, body.Keys
	}

	code, count, keys := page("?keys=1&limit=2&offset=3")
	if code != http.StatusOK || count != 5 || len(keys) != 2 {
		t.Fatalf("paged keys = %d: %d of %d, want 2 of 5", code, len(keys), count)
	}
	// Past-the-end offsets clamp to empty, mirroring the index view.
	if code, count, keys := page("?keys=1&offset=9"); code != http.StatusOK || count != 5 || len(keys) != 0 {
		t.Fatalf("past-end keys = %d: %d of %d", code, len(keys), count)
	}
	// Unpaged stays the full listing.
	if code, _, keys := page("?keys=1"); code != http.StatusOK || len(keys) != 5 {
		t.Fatalf("full keys = %d: %d keys", code, len(keys))
	}
	// Malformed paging params now 400 on the keys view too.
	for _, q := range []string{"?keys=1&limit=nope", "?keys=1&offset=-4"} {
		resp, err := http.Get(ts.URL + "/v1/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestRunEventsReplayAfterRetry pins the stale-terminal replay fix: a
// subscriber attaching after a failed run was re-enqueued must NOT have
// its stream closed by the old terminal event mid-history — it follows
// the live retry to its real outcome.
func TestRunEventsReplayAfterRetry(t *testing.T) {
	release := make(chan struct{})
	attempts := 0
	flaky := func(ctx context.Context, st *resultstore.Store, bench string, sc lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		attempts++
		if attempts == 1 {
			return nil, false, errBoom
		}
		<-release
		return &lard.Result{Benchmark: bench, Scheme: sc.Label(), CompletionCycles: 1}, false, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Run: flaky, SSEHeartbeat: 20 * time.Millisecond})

	// First attempt fails…
	_, v := post(t, ts, smallRun(1))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := poll(t, ts, v.ID); got.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first attempt never failed")
		}
	}
	// …the re-POST re-enqueues it (retry), which blocks in the worker.
	if code, _ := post(t, ts, smallRun(1)); code != http.StatusAccepted {
		t.Fatal("retry not accepted")
	}

	// A subscriber attaching NOW sees the stale failed terminal
	// mid-history; the stream must survive it and deliver the retry's
	// done event once released.
	c := openSSE(t, ts.URL+"/v1/runs/"+v.ID+"/events")
	defer c.close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	events := c.collect(t, 30*time.Second, func(ev Event) bool { return ev.Terminal && ev.State == StatusDone })
	staleFailed := false
	for _, ev := range events {
		if ev.Terminal && ev.State == StatusFailed {
			staleFailed = true
		}
	}
	if !staleFailed {
		t.Fatal("replay should include the stale failed terminal (it is history)")
	}
	final := events[len(events)-1]
	if final.State != StatusDone || !final.Terminal {
		t.Fatalf("stream must end at the retry's real outcome, got %+v", final)
	}
}

// errBoom is a distinguishable failure for flaky-run tests.
var errBoom = errors.New("boom")

// TestSSELastEventID pins reconnect replay on both stream kinds: a
// Last-Event-ID header replays only the history after that seq, one past
// the end replays nothing (and a finished topic still ends the stream),
// and a malformed header replays everything.
func TestSSELastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, SSEHeartbeat: 20 * time.Millisecond})
	_, run := post(t, ts, smallRun(1))
	poll(t, ts, run.ID)
	_, camp := postCampaign(t, ts, smallCampaign("BARNES"))
	pollCampaign(t, ts, camp.ID)

	for _, url := range []string{
		ts.URL + "/v1/runs/" + run.ID + "/events",
		ts.URL + "/v1/campaigns/" + camp.ID + "/events",
	} {
		replay := func(lastID string) []Event {
			t.Helper()
			c := openSSEAfter(t, url, lastID)
			defer c.close()
			// The topic is finished, so the server ends each stream.
			return c.collect(t, 10*time.Second, func(Event) bool { return false })
		}
		all := replay("")
		if len(all) < 3 {
			t.Fatalf("%s: history has %d events, want at least 3", url, len(all))
		}
		mid := all[len(all)/2].Seq
		after := replay(strconv.FormatUint(mid, 10))
		if len(after) == 0 || after[0].Seq != mid+1 || after[len(after)-1].Seq != all[len(all)-1].Seq {
			t.Fatalf("%s: Last-Event-ID %d replayed %+v, want seqs %d..%d", url, mid, after, mid+1, all[len(all)-1].Seq)
		}
		if past := replay(strconv.FormatUint(all[len(all)-1].Seq+10, 10)); len(past) != 0 {
			t.Fatalf("%s: Last-Event-ID past the end replayed %d events, want 0", url, len(past))
		}
		if bad := replay("not-a-seq"); len(bad) != len(all) {
			t.Fatalf("%s: malformed Last-Event-ID replayed %d events, want all %d", url, len(bad), len(all))
		}
	}
}
