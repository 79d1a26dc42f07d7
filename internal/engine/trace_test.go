package engine

import (
	"encoding/json"
	"sync"
	"testing"

	"lard/internal/obs"
)

// tracedEngine builds a started engine with tracing enabled.
func tracedEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Options{Tracing: true})
	}
	return newTestEngine(t, cfg)
}

// spanNames flattens a span tree into name strings for containment checks.
func spanNames(v obs.SpanView, into map[string]obs.SpanView) {
	into[v.Name] = v
	for _, c := range v.Children {
		spanNames(c, into)
	}
}

// TestTraceLifecycle runs one real simulation under tracing and checks the
// finished span tree: admitted -> queued -> simulating (with
// the simulator's phase breakdown, coherence loop non-zero) -> stored.
func TestTraceLifecycle(t *testing.T) {
	e := tracedEngine(t, Config{Workers: 1})
	key, req := smallReq(t, 31)
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	await(t, e, key)

	tree, ok := e.Trace(key)
	if !ok {
		t.Fatal("no trace for finished run")
	}
	if !tree.Finished {
		t.Fatal("trace not finished after terminal job")
	}
	if tree.Trace != key || tree.Root.Name != "run" {
		t.Fatalf("trace identity wrong: %+v", tree)
	}
	spans := map[string]obs.SpanView{}
	spanNames(tree.Root, spans)
	for _, name := range []string{"admitted", "queued", "simulating",
		"setup", "trace_decode", "coherence_loop", "finalize", "stored"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("trace missing span %q (have %v)", name, keysOf(spans))
		}
	}
	if cl := spans["coherence_loop"]; cl.DurationMS <= 0 {
		t.Errorf("coherence_loop duration = %v, want > 0", cl.DurationMS)
	}
	for name, s := range spans {
		if s.End == nil {
			t.Errorf("span %q still open in finished trace", name)
		}
	}
}

// TestTraceCachedSubmit checks a store-hit submission gets a compact trace
// (admitted + stored(cached)) and the second submission of the same key —
// attached to the completed job — leaves it untouched.
func TestTraceCachedSubmit(t *testing.T) {
	e := tracedEngine(t, Config{Workers: 1})
	key, req := smallReq(t, 32)
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	await(t, e, key)
	// Clear the registry record's trace path by submitting again: the
	// attach path is a cache hit and must not restart the finished trace.
	before, _ := e.Trace(key)
	if v, _, err := e.Submit(key, req); err != nil || !v.Cached {
		t.Fatalf("resubmit = %+v err=%v, want cached", v, err)
	}
	after, ok := e.Trace(key)
	if !ok || len(after.Root.Children) != len(before.Root.Children) {
		t.Fatalf("attach rewrote the trace: before %d children, after %d",
			len(before.Root.Children), len(after.Root.Children))
	}
}

// eventSpan names the trace span a job event's state points at: queued →
// "queued", running → "simulating", a terminal state → "stored".
func eventSpan(state string) string {
	switch state {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "simulating"
	default:
		return "stored"
	}
}

// assertNoSpanKey fails if the event, as published on the wire, carries a
// "span" key.
func assertNoSpanKey(t *testing.T, ev Event) {
	t.Helper()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("marshal %+v: %v", ev, err)
	}
	var frame map[string]json.RawMessage
	if err := json.Unmarshal(raw, &frame); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if _, ok := frame["span"]; ok {
		t.Fatalf("event carries a span key: %s", raw)
	}
}

// TestEventsCarrySpanIDs checks the bus's span correlation under tracing:
// events carry no minted span id, and each job event's state names a span
// of the run's finished trace, with queued and running naming different
// spans.
func TestEventsCarrySpanIDs(t *testing.T) {
	e := tracedEngine(t, Config{Workers: 1})
	key, req := smallReq(t, 33)
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	await(t, e, key)
	hist, sub, ok := e.SubscribeRun(key)
	if !ok {
		t.Fatal("subscribe failed")
	}
	sub.Close()
	tree, ok := e.Trace(key)
	if !ok {
		t.Fatal("no trace for finished run")
	}
	spans := map[string]obs.SpanView{}
	spanNames(tree.Root, spans)
	byState := map[string]string{}
	for _, ev := range hist {
		assertNoSpanKey(t, ev)
		name := eventSpan(ev.State)
		if _, ok := spans[name]; !ok {
			t.Fatalf("event %+v names span %q, absent from the trace (have %v)", ev, name, keysOf(spans))
		}
		byState[ev.State] = name
	}
	if byState[StatusQueued] == "" || byState[StatusRunning] == "" {
		t.Fatalf("history lacks a queued or running event: %v", byState)
	}
	if byState[StatusQueued] == byState[StatusRunning] {
		t.Error("queued and running events name the same span")
	}
}

// TestEventsNoSpanWhenTracingOff checks the zero-cost contract on the
// wire: a default engine publishes events with no span field at all and
// records no trace.
func TestEventsNoSpanWhenTracingOff(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	key, req := smallReq(t, 34)
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	await(t, e, key)
	hist, sub, _ := e.SubscribeRun(key)
	sub.Close()
	if len(hist) == 0 {
		t.Fatal("no events in the run's history")
	}
	for _, ev := range hist {
		assertNoSpanKey(t, ev)
	}
	if _, ok := e.Trace(key); ok {
		t.Error("Trace returned a tree with tracing disabled")
	}
}

// TestTraceHistogramsObserve checks the engine feeds its latency families:
// after one real run, the queue-wait and run-duration histograms both
// have observations.
func TestTraceHistogramsObserve(t *testing.T) {
	ob := obs.New(obs.Options{Tracing: true})
	e := tracedEngine(t, Config{Workers: 1, Obs: ob})
	key, req := smallReq(t, 35)
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	await(t, e, key)
	if n := ob.QueueWait.With().Count(); n == 0 {
		t.Error("queue-wait histogram has no observations")
	}
	if n := ob.RunDuration.With().Count(); n == 0 {
		t.Error("run-duration histogram has no observations")
	}
}

// TestConcurrentTraceVsBusRace races span start/finish (jobs moving
// through the lifecycle) against bus publishes and trace reads — the
// SSE-reader-vs-worker interleaving. Run with -race.
func TestConcurrentTraceVsBusRace(t *testing.T) {
	release := make(chan struct{})
	e := tracedEngine(t, Config{Workers: 4, QueueDepth: 64, Run: blockingRun(nil, release)})

	const jobs = 16
	keys := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		key, req := smallReq(t, uint64(100+i))
		keys[i] = key
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Submit(key, req); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	// Concurrent trace readers while jobs queue, run and finish.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					e.Trace(k)
				}
			}
		}()
	}
	wg.Wait()
	close(release)
	for _, k := range keys {
		await(t, e, k)
	}
	close(stop)
	readers.Wait()
	for _, k := range keys {
		if tree, ok := e.Trace(k); !ok || !tree.Finished {
			t.Errorf("trace %s not finished (ok=%v)", k[:8], ok)
		}
	}
}

func keysOf(m map[string]obs.SpanView) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
