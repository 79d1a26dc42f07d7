package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lard"
	"lard/internal/resultstore"
)

// newTestEngine builds a started engine over a memory store with cleanup.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Store == nil {
		st, err := resultstore.New("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return e
}

// smallReq is a fast real request with a distinct content address per seed.
func smallReq(t *testing.T, seed uint64) (string, Request) {
	t.Helper()
	req := Request{
		Benchmark: "BARNES",
		Scheme:    lard.LocalityAware(3),
		Options:   lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed},
	}
	key, err := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return key, req
}

// await polls until the job reaches a terminal state.
func await(t *testing.T, e *Engine, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := e.Job(id); ok && terminal(v.Status) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never terminated")
	return JobView{}
}

// TestLifecycleEvents drives one real run and checks the event-sourcing
// contract: ordered seqs, queued -> running -> interior progress ->
// terminal done, and byte-equal replay for a late subscriber.
func TestLifecycleEvents(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	key, req := smallReq(t, 1)

	hist, sub, ok := func() ([]Event, *Subscription, bool) {
		v, shed, err := e.Submit(key, req)
		if err != nil || shed {
			t.Fatalf("submit = %+v shed=%v err=%v", v, shed, err)
		}
		return e.SubscribeRun(key)
	}()
	if !ok {
		t.Fatal("subscribe failed for live job")
	}
	defer sub.Close()

	events := append([]Event(nil), hist...)
	deadline := time.After(30 * time.Second)
	for events[len(events)-1].Terminal == false {
		select {
		case ev := <-sub.C:
			events = append(events, ev)
		case <-deadline:
			t.Fatalf("no terminal event; have %+v", events)
		}
	}

	if events[0].State != StatusQueued {
		t.Fatalf("first event = %+v, want queued", events[0])
	}
	sawRunning, sawInterior := false, false
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d (gap/dup)", i, ev.Seq)
		}
		if ev.Job != key || ev.Benchmark != "BARNES" || ev.Scheme != "RT-3" {
			t.Fatalf("event identity wrong: %+v", ev)
		}
		if ev.State == StatusRunning {
			sawRunning = true
			if ev.Progress > 0 && ev.Progress < 1 {
				sawInterior = true
			}
		}
	}
	last := events[len(events)-1]
	if last.State != StatusDone || last.Progress != 1 || !last.Terminal {
		t.Fatalf("terminal event = %+v", last)
	}
	if !sawRunning || !sawInterior {
		t.Fatalf("running=%v interior-progress=%v, want both", sawRunning, sawInterior)
	}

	// A late subscriber replays the identical history.
	replay, sub2, ok := e.SubscribeRun(key)
	if !ok {
		t.Fatal("late subscribe failed")
	}
	sub2.Close()
	if len(replay) != len(events) {
		t.Fatalf("replay = %d events, want %d", len(replay), len(events))
	}
	for i := range replay {
		if replay[i] != events[i] {
			t.Fatalf("replay[%d] = %+v != live %+v", i, replay[i], events[i])
		}
	}
}

// blockingRun is a fake RunFunc that signals start, then waits for release
// or cancellation.
func blockingRun(started chan<- string, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, st *resultstore.Store, bench string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		if started != nil {
			started <- s.Label()
		}
		select {
		case <-release:
			return &lard.Result{Benchmark: bench, Scheme: s.Label(), CompletionCycles: 1}, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// TestCancelQueued cancels a job the pool has not picked up: immediate
// cancelled terminal state, queue slot reclaimed.
func TestCancelQueued(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2, Run: blockingRun(started, release)})
	defer close(release)

	k1, r1 := smallReq(t, 1)
	k2, r2 := smallReq(t, 2)
	if _, shed, err := e.Submit(k1, r1); shed || err != nil {
		t.Fatal(shed, err)
	}
	<-started // worker busy on job 1; job 2 stays queued
	if _, shed, err := e.Submit(k2, r2); shed || err != nil {
		t.Fatal(shed, err)
	}

	v, err := e.Cancel(k2)
	if err != nil || v.Status != StatusCancelled {
		t.Fatalf("cancel queued = %+v, %v", v, err)
	}
	if st := e.Stats(); st.QueueLen != 0 || st.RunsCancelled != 1 {
		t.Fatalf("stats after cancel = %+v", st)
	}
	// Cancelling again reports terminal.
	if _, err := e.Cancel(k2); err != ErrTerminal {
		t.Fatalf("second cancel err = %v, want ErrTerminal", err)
	}
	if _, err := e.Cancel("0000000000000000000000000000000000000000000000000000000000000000"); err != ErrUnknownJob {
		t.Fatalf("unknown cancel err = %v", err)
	}
}

// TestCancelRunningRealSim cancels an in-flight REAL simulation: the
// context must interrupt it mid-run (long before it would finish), the
// terminal event is cancelled, the worker slot is reclaimed, and nothing
// is stored.
func TestCancelRunningRealSim(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	req := Request{
		Benchmark: "BARNES",
		Scheme:    lard.SNUCA(),
		Options:   lard.Options{Cores: 16, OpsScale: 2.0}, // seconds of work
	}
	key, err := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if _, shed, err := e.Submit(key, req); shed || err != nil {
		t.Fatal(shed, err)
	}
	// Wait for the first progress event, then cancel mid-flight.
	_, sub, ok := e.SubscribeRun(key)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer sub.Close()
	deadline := time.After(30 * time.Second)
	armed := false
	for !armed {
		select {
		case ev := <-sub.C:
			if ev.State == StatusRunning && ev.Progress > 0 && ev.Progress < 1 {
				armed = true
			}
		case <-deadline:
			t.Fatal("no interior progress event")
		}
	}
	if _, err := e.Cancel(key); err != nil {
		t.Fatal(err)
	}
	v := await(t, e, key)
	if v.Status != StatusCancelled {
		t.Fatalf("status = %q, want cancelled", v.Status)
	}
	// The worker slot comes back.
	idleBy := time.Now().Add(10 * time.Second)
	for {
		st := e.Stats()
		if st.Busy == 0 && st.QueueLen == 0 {
			break
		}
		if time.Now().After(idleBy) {
			t.Fatalf("pool never idled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, hit, _ := lard.LookupStored(e.Store(), req.Benchmark, req.Scheme, req.Options); hit {
		t.Fatal("cancelled run must not be stored")
	}
	// Resubmission re-enqueues the cancelled job (fresh attempt).
	v2, shed, err := e.Submit(key, req)
	if err != nil || shed || terminal(v2.Status) {
		t.Fatalf("resubmit after cancel = %+v shed=%v err=%v", v2, shed, err)
	}
	if _, err := e.Cancel(key); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
	await(t, e, key)
}

// TestCancelRacesCompletion fires Cancel concurrently with instant
// completion, many times: whatever wins, the job lands in exactly one
// terminal state with exactly one terminal event, and the engine survives
// -race.
func TestCancelRacesCompletion(t *testing.T) {
	instant := func(ctx context.Context, st *resultstore.Store, bench string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return &lard.Result{Benchmark: bench, Scheme: s.Label(), CompletionCycles: 1}, false, nil
	}
	e := newTestEngine(t, Config{Workers: 4, QueueDepth: 64, Run: instant})
	for i := 0; i < 50; i++ {
		key, req := smallReq(t, uint64(100+i))
		hist, sub, _ := func() ([]Event, *Subscription, bool) {
			if _, shed, err := e.Submit(key, req); shed || err != nil {
				t.Fatal(shed, err)
			}
			return e.SubscribeRun(key)
		}()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Cancel(key)
		}()
		v := await(t, e, key)
		wg.Wait()
		if v.Status != StatusDone && v.Status != StatusCancelled {
			t.Fatalf("iteration %d: status %q", i, v.Status)
		}
		// An instant run can finish before the subscription attaches; its
		// terminal event then arrives in the replayed history instead.
		terminals := 0
		for _, ev := range hist {
			if ev.Terminal {
				terminals++
			}
		}
		if terminals > 1 {
			t.Fatalf("iteration %d: %d terminal events in history", i, terminals)
		}
		drain := time.After(2 * time.Second)
		for terminals == 0 {
			select {
			case ev := <-sub.C:
				if ev.Terminal {
					terminals++
				}
			case <-drain:
				t.Fatalf("iteration %d: no terminal event", i)
			}
		}
		// No second terminal may follow.
		select {
		case ev := <-sub.C:
			if ev.Terminal {
				t.Fatalf("iteration %d: duplicate terminal %+v", i, ev)
			}
		default:
		}
		sub.Close()
	}
}

// TestFIFOOrder pins the drain order: with the single worker pinned,
// queued jobs run in admission order.
func TestFIFOOrder(t *testing.T) {
	started := make(chan uint64, 8)
	release := make(chan struct{}, 8)
	run := func(ctx context.Context, st *resultstore.Store, bench string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		started <- o.Seed
		<-release
		return &lard.Result{Benchmark: bench, Scheme: s.Label(), CompletionCycles: 1}, false, nil
	}
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8, Run: run})

	blocker, blockReq := smallReq(t, 1)
	if _, shed, err := e.Submit(blocker, blockReq); shed || err != nil {
		t.Fatal(shed, err)
	}
	<-started // worker pinned

	seeds := []uint64{4, 2, 3}
	keys := make([]string, len(seeds))
	for i, seed := range seeds {
		k, r := smallReq(t, seed)
		keys[i] = k
		if _, shed, err := e.Submit(k, r); shed || err != nil {
			t.Fatal(shed, err)
		}
	}
	for _, want := range seeds {
		release <- struct{}{}
		if got := <-started; got != want {
			t.Fatalf("worker ran seed %d, want %d (admission order %v)", got, want, seeds)
		}
	}
	release <- struct{}{}
	for _, k := range keys {
		await(t, e, k)
	}
}

// TestRetryKeepsRegistryEntry pins the eviction queue against retries: a
// failed job retried into a full registry stays in it after failing
// again, and the bound still evicts the oldest other job.
func TestRetryKeepsRegistryEntry(t *testing.T) {
	run := func(ctx context.Context, st *resultstore.Store, bench string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
		if o.Seed == 1 {
			return nil, false, errors.New("boom")
		}
		return &lard.Result{Benchmark: bench, Scheme: s.Label(), CompletionCycles: 1}, false, nil
	}
	e := newTestEngine(t, Config{Workers: 1, MaxCompletedJobs: 3, Run: run})
	submit := func(seed uint64) string {
		t.Helper()
		k, r := smallReq(t, seed)
		if _, shed, err := e.Submit(k, r); shed || err != nil {
			t.Fatal(shed, err)
		}
		return k
	}
	// awaitFailures waits until n runs have failed; the registry is
	// trimmed under the same lock hold that counts the failure.
	awaitFailures := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for e.Stats().RunsFailed < n {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %d failed runs", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	a := submit(1)
	awaitFailures(1)
	b := submit(2)
	await(t, e, b)
	await(t, e, submit(3))
	submit(1) // retry: fails again into a full registry
	awaitFailures(2)
	if v, ok := e.Job(a); !ok || v.Status != StatusFailed || v.Error != "boom" {
		t.Fatalf("retried job after its second failure = %+v, ok=%v; want failed with its error", v, ok)
	}

	await(t, e, submit(4))
	if _, ok := e.Job(b); ok {
		t.Error("oldest finished job survived a registry over its bound")
	}
	if _, ok := e.Job(a); !ok {
		t.Error("retried job evicted ahead of older jobs")
	}
}

// TestShedByteCompat pins the 429 contract: with 1 worker busy and a
// 1-deep queue, the third distinct submission sheds.
func TestShedByteCompat(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1, Run: blockingRun(started, release)})
	defer close(release)
	k1, r1 := smallReq(t, 1)
	k2, r2 := smallReq(t, 2)
	k3, r3 := smallReq(t, 3)
	if _, shed, err := e.Submit(k1, r1); shed || err != nil {
		t.Fatal(shed, err)
	}
	<-started
	if _, shed, err := e.Submit(k2, r2); shed || err != nil {
		t.Fatalf("queued submit shed=%v err=%v", shed, err)
	}
	if _, shed, err := e.Submit(k3, r3); !shed || err != nil {
		t.Fatalf("overflow submit shed=%v err=%v, want shed", shed, err)
	}
}

// TestFinishIdempotent pins the Cancel-vs-worker-pickup race guard: a job
// finished twice (as both racers may attempt) publishes exactly one
// terminal event and counts exactly one outcome.
func TestFinishIdempotent(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Run: blockingRun(nil, make(chan struct{}))})
	key, req := smallReq(t, 1)
	j := &job{id: key, req: req, status: StatusQueued, cancelReq: true}
	e.mu.Lock()
	e.jobs[key] = j
	e.mu.Unlock()

	_, sub, ok := e.SubscribeRun(key)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer sub.Close()
	e.finish(j, nil, false, context.Canceled)
	e.finish(j, nil, false, context.Canceled)

	if st := e.Stats(); st.RunsCancelled != 1 {
		t.Fatalf("cancellations = %d, want 1", st.RunsCancelled)
	}
	terminals := 0
	for {
		select {
		case ev := <-sub.C:
			if ev.Terminal {
				terminals++
			}
			continue
		default:
		}
		break
	}
	if terminals != 1 {
		t.Fatalf("terminal events = %d, want exactly 1", terminals)
	}
}
