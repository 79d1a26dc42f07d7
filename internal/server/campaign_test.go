package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lard"
	"lard/internal/harness"
	"lard/internal/resultstore"
)

// smallCampaign is a fast real campaign: benches x {S-NUCA, RT-3} at 16
// cores and a tiny trace.
func smallCampaign(benches ...string) lard.CampaignSpec {
	return lard.CampaignSpec{
		Benchmarks: benches,
		Schemes:    []lard.Scheme{lard.SNUCA(), lard.LocalityAware(3)},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	}
}

// postCampaign submits a campaign and decodes the campaign view.
func postCampaign(t *testing.T, ts *httptest.Server, spec lard.CampaignSpec) (int, CampaignView) {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v CampaignView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

// pollCampaign fetches a campaign until it is complete or a member fails.
func pollCampaign(t *testing.T, ts *httptest.Server, id string) CampaignView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v CampaignView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Complete || v.Counts[StatusFailed] > 0 {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("campaign never completed")
	return CampaignView{}
}

// TestCampaignLifecycle drives the happy path: submit a 2x2 matrix, watch
// the counters converge, and require exactly one simulation per member.
func TestCampaignLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	spec := smallCampaign("BARNES", "DEDUP")

	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if v.Total != 4 || len(v.Members) != 4 {
		t.Fatalf("campaign has %d members, want 4: %+v", v.Total, v)
	}
	sum := 0
	for _, n := range v.Counts {
		sum += n
	}
	if sum != v.Total {
		t.Fatalf("counters %v must sum to total %d", v.Counts, v.Total)
	}

	done := pollCampaign(t, ts, v.ID)
	if !done.Complete || done.Counts[StatusDone] != 4 {
		t.Fatalf("campaign = %+v", done)
	}
	for _, m := range done.Members {
		if m.Status != StatusDone {
			t.Fatalf("member %+v not done", m)
		}
		if m.Scheme != "S-NUCA" && m.Scheme != "RT-3" {
			t.Fatalf("member label %q", m.Scheme)
		}
	}
	if computes := s.store.Stats().Computes; computes != 4 {
		t.Fatalf("computes = %d, want 4", computes)
	}

	// Member runs are ordinary jobs: GET /v1/runs/{member id} works.
	resp, err := http.Get(ts.URL + "/v1/runs/" + done.Members[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	err = json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || jv.Status != StatusDone {
		t.Fatalf("member job GET = %d %+v (%v)", resp.StatusCode, jv, err)
	}

	// Resubmitting the identical matrix attaches to the same campaign and
	// is already complete: 200, no new simulations.
	code, again := postCampaign(t, ts, spec)
	if code != http.StatusOK || again.ID != v.ID || !again.Complete {
		t.Fatalf("resubmit = %d %+v", code, again)
	}
	if computes := s.store.Stats().Computes; computes != 4 {
		t.Fatalf("resubmit ran %d extra simulations", computes-4)
	}
}

// TestCampaignDedup pins member deduplication: duplicate scheme entries
// collapse to one content-addressed run per benchmark, and a run shared
// with a prior direct submission is not simulated again.
func TestCampaignDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Simulate one member up front through the run API.
	_, rv := post(t, ts, RunRequest{
		Benchmark: "BARNES",
		Scheme:    lard.SNUCA(),
		Options:   lard.Options{Cores: 16, OpsScale: 0.02},
	})
	poll(t, ts, rv.ID)
	if computes := s.store.Stats().Computes; computes != 1 {
		t.Fatalf("setup computes = %d", computes)
	}

	spec := smallCampaign("BARNES")
	spec.Schemes = append(spec.Schemes, lard.SNUCA(), lard.LocalityAware(3)) // duplicates
	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if v.Total != 2 {
		t.Fatalf("deduped campaign has %d members, want 2 (S-NUCA + RT-3)", v.Total)
	}

	done := pollCampaign(t, ts, v.ID)
	if !done.Complete {
		t.Fatalf("campaign = %+v", done)
	}
	// Only RT-3 was new: the S-NUCA member rode the earlier run.
	if computes := s.store.Stats().Computes; computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}
	if done.Cached != 1 {
		t.Fatalf("cached members = %d, want 1 (the pre-run S-NUCA)", done.Cached)
	}
}

// TestCampaignTable renders a completed campaign as figure-style tables and
// refuses to render an incomplete one.
func TestCampaignTable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	spec := smallCampaign("BARNES", "DEDUP")
	_, v := postCampaign(t, ts, spec)
	pollCampaign(t, ts, v.ID)

	get := func(url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get(ts.URL + "/v1/campaigns/" + v.ID + "/table")
	if code != http.StatusOK {
		t.Fatalf("table = %d (%v)", code, body)
	}
	table, _ := body["table"].(string)
	for _, want := range []string{"completion time", "S-NUCA", "RT-3", "BARNES", "DEDUP", "AVERAGE"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// The S-NUCA column normalizes to 1.000.
	avgs, _ := body["averages"].(map[string]any)
	if avgs["S-NUCA"] != 1.0 {
		t.Errorf("S-NUCA average = %v, want 1.0", avgs["S-NUCA"])
	}

	if code, body := get(ts.URL + "/v1/campaigns/" + v.ID + "/table?metric=energy"); code != http.StatusOK ||
		!strings.Contains(body["table"].(string), "energy") {
		t.Errorf("energy table = %d %v", code, body)
	}
	if code, _ := get(ts.URL + "/v1/campaigns/" + v.ID + "/table?metric=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus metric = %d, want 400", code)
	}
	if code, _ := get(ts.URL + "/v1/campaigns/doesnotexist/table"); code != http.StatusNotFound {
		t.Errorf("unknown campaign table = %d, want 404", code)
	}

	// An incomplete campaign refuses to render: block the worker pool so
	// the new campaign's members cannot finish.
	release := make(chan struct{})
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Run: blockingTestRun(nil, release)})
	defer close(release)
	_, v2 := postCampaign(t, ts2, smallCampaign("BARNES"))
	resp, err := http.Get(ts2.URL + "/v1/campaigns/" + v2.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("incomplete table = %d, want 409", resp.StatusCode)
	}
}

// TestCampaignBackpressure fills the queue mid-campaign: the POST sheds
// with 429, the campaign stays registered part-filled, and re-POSTing the
// same matrix continues the fan-out to completion.
func TestCampaignBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Run: blockingTestRun(nil, release)})

	// 3 benchmarks x 2 schemes = 6 members against capacity 2 (1 worker +
	// 1 queue slot).
	spec := smallCampaign("BARNES", "DEDUP", "RADIX")
	code, v := postCampaign(t, ts, spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit = %d, want 429", code)
	}
	if v.Error == "" {
		t.Fatal("shed campaign must carry an explanation")
	}
	if v.Counts[StatusPending] == 0 {
		t.Fatalf("part-filled campaign must report pending members: %v", v.Counts)
	}
	accepted := v.Counts[StatusQueued] + v.Counts[StatusRunning]
	if accepted == 0 || accepted+v.Counts[StatusPending] != v.Total {
		t.Fatalf("counts %v inconsistent with total %d", v.Counts, v.Total)
	}

	// The part-filled campaign is visible on GET.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("part-filled GET = %d", resp.StatusCode)
	}

	// Unblock the pool and drive the campaign home by re-POSTing as
	// capacity frees up, exactly like a well-behaved client.
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, v = postCampaign(t, ts, spec)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never drained; last = %d %+v", code, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !v.Complete || v.Counts[StatusDone] != 6 {
		t.Fatalf("drained campaign = %+v", v)
	}
	_ = s
}

// TestCampaignShedStillServesCachedMembers pins the part-fill contract: a
// queue shed must not abandon the rest of the fan-out, because members
// whose results are already in the store materialize as done without
// touching the queue. One 429 POST still completes every cached member.
func TestCampaignShedStillServesCachedMembers(t *testing.T) {
	dir := t.TempDir()
	st1, _ := resultstore.New(dir)
	_, ts1 := newTestServer(t, Config{Store: st1, Workers: 2, QueueDepth: 8})
	// Compute the S-NUCA column of the campaign below into the shared store.
	for _, b := range []string{"BARNES", "DEDUP"} {
		_, v := post(t, ts1, RunRequest{
			Benchmark: b, Scheme: lard.SNUCA(),
			Options: lard.Options{Cores: 16, OpsScale: 0.02},
		})
		poll(t, ts1, v.ID)
	}

	// Fresh server over the same store with its worker blocked and its
	// one-slot queue full of unrelated jobs: no capacity for novel members.
	release := make(chan struct{})
	started := make(chan string, 1)
	st2, _ := resultstore.New(dir)
	_, ts2 := newTestServer(t, Config{Store: st2, Workers: 1, QueueDepth: 1, Run: blockingTestRun(started, release)})
	defer close(release)
	post(t, ts2, smallRun(51))
	<-started
	post(t, ts2, smallRun(52))

	// 2 store-cached members (S-NUCA) + 2 novel (RT-3): the novel ones
	// shed, the cached ones complete anyway.
	code, v := postCampaign(t, ts2, smallCampaign("BARNES", "DEDUP"))
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit = %d, want 429", code)
	}
	if v.Counts[StatusDone] != 2 || v.Cached != 2 {
		t.Fatalf("cached members must complete despite the shed: %+v", v)
	}
	if v.Counts[StatusPending] != 2 {
		t.Fatalf("novel members must stay pending: %v", v.Counts)
	}
	if st2.Stats().Computes != 0 {
		t.Fatal("no simulation may run while the pool is blocked")
	}
}

// TestCampaignSurvivesJobEviction pins the store fallback for campaigns: a
// finished campaign whose member job records age out of the completed-job
// registry must stay complete (the store remembers) — not flip back to
// pending with a table that 409s forever.
func TestCampaignSurvivesJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxCompletedJobs: 2})
	_, v := postCampaign(t, ts, smallCampaign("BARNES", "DEDUP"))
	done := pollCampaign(t, ts, v.ID)
	if !done.Complete {
		t.Fatalf("campaign = %+v", done)
	}

	// Push the campaign's member jobs out of the bounded registry with
	// unrelated runs.
	for seed := uint64(10); seed <= 13; seed++ {
		_, rv := post(t, ts, smallRun(seed))
		poll(t, ts, rv.ID)
	}
	evicted := 0
	for _, m := range done.Members {
		if _, ok := s.Engine().Job(m.ID); !ok {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("test setup: no member job was evicted")
	}

	after := pollCampaign(t, ts, v.ID)
	if !after.Complete || after.Counts[StatusPending] != 0 {
		t.Fatalf("campaign after eviction = %+v, want still complete", after)
	}
	// The campaign simulated every member itself; the store fallback must
	// not launder those simulations into cached counts after eviction.
	if after.Cached != 0 {
		t.Fatalf("cached = %d, want 0 (all members were simulated by this campaign)", after.Cached)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + v.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	var tbl campaignTableView
	err = json.NewDecoder(resp.Body).Decode(&tbl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("table after eviction = %d (%v)", resp.StatusCode, err)
	}
	if !strings.Contains(tbl.Table, "BARNES") {
		t.Fatalf("table incomplete:\n%s", tbl.Table)
	}
	if computes := s.store.Stats().Computes; computes != 8 {
		t.Fatalf("fallback must not simulate (computes = %d, want 8)", computes)
	}

	// Re-POSTing the matrix after eviction recreates the member jobs from
	// the store (their job records say cached) — but the campaign's own
	// accounting must still report them as simulated, not cached.
	code, again := postCampaign(t, ts, smallCampaign("BARNES", "DEDUP"))
	if code != http.StatusOK || !again.Complete {
		t.Fatalf("re-POST after eviction = %d %+v", code, again)
	}
	if again.Cached != 0 {
		t.Fatalf("re-POST laundered %d simulated members into cached", again.Cached)
	}
}

// TestCampaignValidation covers malformed campaign submissions.
func TestCampaignValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"bad JSON":      "{",
		"unknown field": `{"schemes":[{"kind":"S-NUCA"}],"bogus":1}`,
		"no schemes":    `{"benchmarks":["BARNES"]}`,
		"unknown bench": `{"benchmarks":["NOPE"],"schemes":[{"kind":"S-NUCA"}]}`,
		"RT-0 scheme":   `{"benchmarks":["BARNES"],"schemes":[{"kind":"RT","classifier_k":3,"cluster_size":1}]}`,
		"bad cores":     `{"benchmarks":["BARNES"],"schemes":[{"kind":"S-NUCA"}],"options":{"cores":7}}`,
		"bad scale":     `{"benchmarks":["BARNES"],"schemes":[{"kind":"S-NUCA"}],"options":{"cores":16,"ops_scale":-0.5}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign = %d, want 404", resp.StatusCode)
	}
}

// TestCampaignFigure7CachedTwice is the acceptance test for the campaign
// layer: submitting the Figure-7 matrix as one campaign twice performs zero
// simulations the second time — every member is served from the store and
// counted cached. The second submission runs on a fresh server over the
// same store directory, the production shape of "re-render last week's
// figure".
func TestCampaignFigure7CachedTwice(t *testing.T) {
	benches := []string(nil) // all 21, the full Figure-7 matrix
	if testing.Short() {
		benches = []string{"BARNES", "DEDUP", "RADIX"}
	}
	spec := lard.CampaignSpec{
		Benchmarks: benches,
		Schemes:    lard.FigureSchemes(),
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	}
	nBench := len(benches)
	if nBench == 0 {
		nBench = len(lard.Benchmarks())
	}
	wantMembers := nBench * len(lard.FigureSchemes())

	dir := t.TempDir()
	st1, _ := resultstore.New(dir)
	s1, ts1 := newTestServer(t, Config{Store: st1, QueueDepth: wantMembers})
	code, v := postCampaign(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	if v.Total != wantMembers {
		t.Fatalf("campaign has %d members, want %d", v.Total, wantMembers)
	}
	first := pollCampaign(t, ts1, v.ID)
	if !first.Complete {
		t.Fatalf("first campaign = %+v", first)
	}
	if computes := s1.store.Stats().Computes; computes != uint64(wantMembers) {
		t.Fatalf("first pass computes = %d, want %d", computes, wantMembers)
	}

	// Second submission, fresh server, same store: answered instantly and
	// entirely from the store.
	st2, _ := resultstore.New(dir)
	s2, ts2 := newTestServer(t, Config{Store: st2, QueueDepth: wantMembers})
	code, again := postCampaign(t, ts2, spec)
	if code != http.StatusOK {
		t.Fatalf("second submit = %d, want 200 (instant, all cached)", code)
	}
	if again.ID != v.ID {
		t.Fatal("identical matrices must share a campaign id")
	}
	if !again.Complete || again.Cached != wantMembers || again.Counts[StatusDone] != wantMembers {
		t.Fatalf("second campaign = complete=%v cached=%d counts=%v, want all %d cached",
			again.Complete, again.Cached, again.Counts, wantMembers)
	}
	st := s2.store.Stats()
	if st.Computes != 0 {
		t.Fatalf("second pass ran %d simulations, want 0", st.Computes)
	}
	if st.DiskHits != uint64(wantMembers) {
		t.Fatalf("second pass disk hits = %d, want %d", st.DiskHits, wantMembers)
	}

	// The table renders instantly from the cached members.
	resp, err := http.Get(ts2.URL + "/v1/campaigns/" + again.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	var tbl campaignTableView
	err = json.NewDecoder(resp.Body).Decode(&tbl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("table = %d (%v)", resp.StatusCode, err)
	}
	if !strings.Contains(tbl.Table, "RT-3") || tbl.Averages["S-NUCA"] != 1.0 {
		t.Fatalf("table incomplete:\n%s", tbl.Table)
	}
}

// TestCampaignAutoASRMatchesHarness: an auto_asr campaign's served table
// holds the same rows as the local harness figure on the same matrix, so
// the two paths share one expansion and one pick. Only the title differs,
// since /table serves any matrix. The campaign's per-member views tell
// the five ASR candidates apart.
func TestCampaignAutoASRMatchesHarness(t *testing.T) {
	benches := []string{"BARNES", "DEDUP"}
	spec := lard.CampaignSpec{
		Benchmarks: benches,
		Schemes:    lard.FigureSchemes(),
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
		AutoASR:    true,
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	code, v := postCampaign(t, ts, spec)
	if code != http.StatusAccepted || v.Total != 22 {
		t.Fatalf("submit = %d with %d members, want 202 with 22", code, v.Total)
	}
	done := pollCampaign(t, ts, v.ID)
	if !done.Complete {
		t.Fatalf("campaign = %+v", done)
	}
	rows := make(map[string]bool, len(done.Members))
	for _, m := range done.Members {
		row := m.Benchmark + "/" + m.Scheme
		if rows[row] {
			t.Fatalf("two members render as %s", row)
		}
		rows[row] = true
	}
	for _, want := range []string{"BARNES/ASR@0", "BARNES/ASR@0.25", "DEDUP/ASR@1", "DEDUP/RT-3"} {
		if !rows[want] {
			t.Errorf("member row %s missing from %v", want, rows)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + v.ID + "/table?metric=time")
	if err != nil {
		t.Fatal(err)
	}
	var tbl campaignTableView
	err = json.NewDecoder(resp.Body).Decode(&tbl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("table = %d (%v)", resp.StatusCode, err)
	}
	m, err := harness.RunMatrix(harness.Base{Cores: 16, OpsScale: 0.02, Benchmarks: benches}, harness.StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	local, _ := harness.Fig7Time(m)
	_, servedRows, _ := strings.Cut(tbl.Table, "\n")
	_, localRows, _ := strings.Cut(local, "\n")
	if servedRows != localRows {
		t.Fatalf("served table rows differ from the local figure:\nserved:\n%s\nlocal:\n%s", tbl.Table, local)
	}
}
