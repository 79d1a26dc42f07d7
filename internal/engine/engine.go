// Package engine is the event-sourced execution engine beneath the HTTP
// service: one lifecycle state machine for runs and campaign members,
// driven through a bounded worker pool and narrated on an event bus.
//
// Every job — a single POST /v1/runs submission or one campaign member —
// moves through pending -> queued -> running -> done/failed/cancelled.
// Each transition, and each throttled instructions-retired progress update
// from the simulator, is published as an Event on the job's topic (and
// fanned out to every campaign the job belongs to). Topics keep a bounded
// replayable history, so a late subscriber first receives everything that
// already happened, then the live feed — the contract the server's SSE
// endpoints expose.
//
// Scheduling is FIFO: a store hit is answered inside Submit, so every
// queued job is a miss that needs a full simulation, and any idle worker
// takes the oldest one. Admission is bounded: beyond QueueDepth the engine
// sheds (the server's 429).
//
// Jobs are content-addressed and deduplicated exactly as before: an id is
// its run's canonical store key, resubmission attaches, completed results
// live on in the store after registry eviction.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lard"
	"lard/internal/obs"
	"lard/internal/resultstore"
)

// Job states. A job is terminal in StatusDone, StatusFailed or
// StatusCancelled; StatusPending is the campaign-member state for work the
// queue has not accepted yet.
const (
	StatusPending   = "pending"
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// terminal reports whether status is a final state.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// RunFunc executes one simulation through a store, honoring ctx
// cancellation and reporting to o.Observer. It is a seam for tests;
// production engines use lard.RunWithStoreProgress.
type RunFunc func(ctx context.Context, st *resultstore.Store, benchmark string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error)

// Request identifies one run: the wire shape of POST /v1/runs.
type Request struct {
	Benchmark string       `json:"benchmark"`
	Scheme    lard.Scheme  `json:"scheme"`
	Options   lard.Options `json:"options"`
}

// JobView is the wire representation of a job.
type JobView struct {
	ID        string `json:"id"`
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Status    string `json:"status"`
	// Progress is the instructions-retired fraction in [0,1] (1 on done).
	Progress float64 `json:"progress"`
	// Cached reports whether the result was served from the store rather
	// than simulated for this job.
	Cached bool         `json:"cached"`
	Result *lard.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// job is the internal job record; mutable fields are guarded by the engine
// mutex.
type job struct {
	id        string
	req       Request
	status    string
	cached    bool
	result    *lard.Result
	err       string
	progress  float64
	cancel    context.CancelFunc // set while running
	cancelReq bool               // cancellation requested
	enrolled  int                // entries in Engine.done naming this job

	// Observability. admittedAt is the queue-admission instant (zero for
	// jobs answered from the store without queueing); root is the job's
	// trace root and queued its "queued" span, open until worker pickup,
	// both nil when tracing is disabled. Both pointers are written only
	// under the engine mutex; span-internal state has its own lock.
	admittedAt time.Time
	root       *obs.Span
	queued     *obs.Span
}

// Config configures an Engine. A zero size selects its default; New
// rejects a negative one.
type Config struct {
	// Store is the backing result store (required).
	Store *resultstore.Store
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admitted-but-not-running queue (default 2x
	// Workers); submissions beyond it are shed.
	QueueDepth int
	// Run overrides the simulation function (tests only).
	Run RunFunc
	// MaxCompletedJobs bounds the registry of finished jobs (default
	// 4096). Results live on in the store — an evicted id answers unknown
	// here, but the store still resolves it by content address.
	MaxCompletedJobs int
	// Obs is the observability bundle — tracer, latency histograms,
	// logger (default obs.Nop(): histograms recorded but unexported,
	// tracing off, logs discarded).
	Obs *obs.Observer
}

// maxCompletedJobs is the default bound on the finished-job registry.
const maxCompletedJobs = 4096

// progressDelta is the event-publication throttle: a running job's
// progress events fire when the fraction advances at least this much
// (plus always at 1.0), bounding a run to ~100 progress events however
// often the simulator reports.
const progressDelta = 0.01

// ErrShuttingDown rejects work submitted during shutdown.
var ErrShuttingDown = errors.New("engine shutting down")

// ErrUnknownJob reports an id absent from the job registry.
var ErrUnknownJob = errors.New("unknown job")

// ErrTerminal reports a cancellation attempt on an already-terminal job.
var ErrTerminal = errors.New("job already terminal")

// Engine is the execution engine. Create with New, start the worker pool
// with Start, and stop with Shutdown.
type Engine struct {
	store    *resultstore.Store
	run      RunFunc
	workers  int
	maxDone  int
	queueCap int
	bus      *bus
	obs      *obs.Observer

	mu      sync.Mutex
	cond    *sync.Cond // signals queue pushes and shutdown
	pending []*job     // admitted, waiting for a worker, oldest first
	jobs    map[string]*job
	done    []*job // completed jobs, oldest first, for eviction
	busy    int    // workers currently simulating
	closing bool
	stop    chan struct{}
	wg      sync.WaitGroup

	campaigns   map[string]*campaign
	campOrder   []*campaign                // registration order, for eviction
	memberCamps map[string]map[string]bool // member key -> campaign ids

	// Monotonic counters (see Stats).
	runsStarted   uint64
	runsCompleted uint64
	runsFailed    uint64
	runsCached    uint64
	runsCancelled uint64
	campaignsSeen uint64
}

// New builds an Engine from cfg.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, errors.New("engine: Config.Store is required")
	}
	switch {
	case cfg.Workers < 0:
		return nil, fmt.Errorf("engine: negative Workers %d", cfg.Workers)
	case cfg.QueueDepth < 0:
		return nil, fmt.Errorf("engine: negative QueueDepth %d", cfg.QueueDepth)
	case cfg.MaxCompletedJobs < 0:
		return nil, fmt.Errorf("engine: negative MaxCompletedJobs %d", cfg.MaxCompletedJobs)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 2 * workers
	}
	run := cfg.Run
	if run == nil {
		run = lard.RunWithStoreProgress
	}
	maxDone := cfg.MaxCompletedJobs
	if maxDone == 0 {
		maxDone = maxCompletedJobs
	}
	ob := cfg.Obs
	if ob == nil {
		ob = obs.Nop()
	}
	e := &Engine{
		store:       cfg.Store,
		run:         run,
		workers:     workers,
		maxDone:     maxDone,
		queueCap:    depth,
		obs:         ob,
		bus:         newBus(defaultQueueCap, defaultHistCap),
		jobs:        make(map[string]*job),
		stop:        make(chan struct{}),
		campaigns:   make(map[string]*campaign),
		memberCamps: make(map[string]map[string]bool),
	}
	e.cond = sync.NewCond(&e.mu)
	return e, nil
}

// Start launches the worker pool.
func (e *Engine) Start() {
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// QueueCap returns the admission-queue bound.
func (e *Engine) QueueCap() int { return e.queueCap }

// Store returns the backing result store.
func (e *Engine) Store() *resultstore.Store { return e.store }

// Stopping is closed when Shutdown begins (used by tests to sequence
// against the drain).
func (e *Engine) Stopping() <-chan struct{} { return e.stop }

// Shutdown stops the engine gracefully: new submissions are refused,
// workers finish their in-flight simulations, and still-queued jobs fail
// with ErrShuttingDown's message. It returns ctx.Err() if the workers
// outlive the context.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	already := e.closing
	e.closing = true
	e.cond.Broadcast()
	e.mu.Unlock()
	if !already {
		close(e.stop)
	}

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	// Workers are gone; fail whatever never got picked up.
	e.mu.Lock()
	drained := e.pending
	e.pending = nil
	e.mu.Unlock()
	for _, j := range drained {
		e.finish(j, nil, false, ErrShuttingDown)
	}
	return nil
}

// worker drains the queue, oldest job first, until Shutdown.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		j := e.pop()
		if j == nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.mu.Lock()
		if j.cancelReq {
			// Cancelled between admission and pickup; never starts.
			e.mu.Unlock()
			cancel()
			e.finish(j, nil, false, context.Canceled)
			continue
		}
		j.status = StatusRunning
		j.cancel = cancel
		e.busy++
		e.runsStarted++
		if !j.admittedAt.IsZero() {
			e.obs.QueueWait.ObserveDuration(time.Since(j.admittedAt))
		}
		j.queued.End()
		j.queued = nil
		simSpan := j.root.Child("simulating")
		e.publishJobLocked(j, Event{State: StatusRunning, Progress: j.progress})
		e.mu.Unlock()

		// The job's observer rides on an options copy, never the keyed
		// request: it is key-neutral, so the job's content address (its
		// id) is untouched.
		ob := &jobObserver{e: e, j: j, span: simSpan, rec: e.obs.Timelines.Attach(j.id)}
		opts := j.req.Options
		opts.Observer = ob
		callStart := time.Now()
		res, cached, err := e.run(ctx, e.store, j.req.Benchmark, j.req.Scheme, opts)
		callDur := time.Since(callStart)
		cancel()
		ob.stored(callStart, callDur, cached)
		e.finish(j, res, cached, err)
		e.mu.Lock()
		e.busy--
		j.cancel = nil
		e.mu.Unlock()
	}
}

// jobObserver is a running job's one simulation observer. Each phase
// ends as a child of the "simulating" span, and each epoch feeds the
// job's timeline recorder (read through GET /v1/runs/{id}/timeline, never
// the event bus) and its progress events. Cancellation needs nothing
// here: the run call stops the simulation once ctx is done.
type jobObserver struct {
	e    *Engine
	j    *job
	span *obs.Span     // "simulating"; nil when tracing is disabled
	rec  *obs.Recorder // nil when tracing is disabled
	sim  time.Duration // summed phase time
}

func (o *jobObserver) Phase(name string, start time.Time, d time.Duration) {
	o.span.ChildAt(name, start, d)
	o.sim += d
}

func (o *jobObserver) Epoch(ep *obs.RunEpoch) bool {
	o.rec.Epoch(ep)
	o.e.reportProgress(o.j, ep.Done, ep.Total)
	return false
}

// stored ends the "simulating" span and adds the "stored" span covering
// the residual of the run call (store write, encode, singleflight
// coordination). Runs served from the store mid-call — or executed by a
// stub RunFunc that reports no phases — get a single "stored" span over
// the whole call. No-op when tracing is disabled.
func (o *jobObserver) stored(callStart time.Time, callDur time.Duration, cached bool) {
	if o.span == nil {
		return
	}
	o.span.End()
	var stored *obs.Span
	if o.sim > 0 && callDur > o.sim {
		stored = o.j.root.ChildAt("stored", callStart.Add(o.sim), callDur-o.sim)
	} else {
		stored = o.j.root.ChildAt("stored", callStart, callDur)
	}
	if cached {
		stored.SetAttr("cached", "true")
	}
}

// pop blocks until a job is available (returning the oldest) or shutdown
// begins (returning nil).
func (e *Engine) pop() *job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.closing {
			return nil
		}
		if len(e.pending) > 0 {
			j := e.pending[0]
			e.pending[0] = nil
			e.pending = e.pending[1:]
			return j
		}
		e.cond.Wait()
	}
}

// Submit guarantees the run with content address key is progressing,
// whether submitted directly or fanned out by a campaign: an existing job
// is attached to (failed ones re-enqueued for retry), a previously stored
// result materializes a completed job without touching the queue, and a
// novel run joins the back of the queue. It returns a snapshot view
// (Cached set when this caller got the result without simulating),
// shed=true when the queue is full (nothing enrolled), or an error
// (shutdown, or a store fault).
func (e *Engine) Submit(key string, req Request) (view JobView, shed bool, err error) {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return JobView{}, false, ErrShuttingDown
	}
	if j, ok := e.jobs[key]; ok {
		defer e.mu.Unlock()
		return e.attachLocked(j)
	}
	e.mu.Unlock()

	// Off the lock: a previously computed run answers from the store,
	// synchronously and without simulating.
	res, hit, err := lard.LookupStored(e.store, req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		return JobView{}, false, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-check closing: Shutdown may have drained the queue while we were
	// off the lock — enqueueing now would strand the job in "queued".
	if e.closing {
		return JobView{}, false, ErrShuttingDown
	}
	if j, raced := e.jobs[key]; raced {
		return e.attachLocked(j)
	}
	j := &job{id: key, req: req, status: StatusQueued}
	if hit {
		j.status, j.cached, j.result, j.progress = StatusDone, true, res, 1
		e.runsCached++
		e.jobs[key] = j
		e.beginTraceLocked(j, false)
		stored := j.root.Child("stored")
		stored.SetAttr("cached", "true")
		stored.End()
		j.root.End()
		e.obs.Log.Debug("run served from store", "run", j.id, "benchmark", req.Benchmark)
		e.publishJobLocked(j, Event{State: StatusDone, Progress: 1, Cached: true, Terminal: true})
		e.completedLocked(j)
		return viewOf(j), false, nil
	}
	if !e.admitLocked(j) {
		e.obs.Log.Warn("queue full, submission shed", "run", key, "benchmark", req.Benchmark)
		return JobView{}, true, nil
	}
	e.jobs[key] = j
	e.beginTraceLocked(j, false)
	e.obs.Log.Debug("run admitted", "run", j.id, "benchmark", req.Benchmark,
		"scheme", req.Scheme.Label())
	e.publishJobLocked(j, Event{State: StatusQueued})
	return viewOf(j), false, nil
}

// beginTraceLocked starts (or, on retry, restarts) j's trace: the root
// "run" span with identity attributes, an "admitted" span, and — for a job
// actually entering the queue — an open "queued" phase span ended at
// worker pickup. No-ops entirely when tracing is disabled. Callers hold
// e.mu.
func (e *Engine) beginTraceLocked(j *job, retry bool) {
	if j.status == StatusQueued {
		j.admittedAt = time.Now() // queue-wait baseline, tracing or not
	}
	j.root = e.obs.Tracer.StartTrace(j.id, "run")
	if j.root == nil {
		return
	}
	j.root.SetAttr("benchmark", j.req.Benchmark)
	j.root.SetAttr("scheme", j.req.Scheme.Label())
	adm := j.root.Child("admitted")
	if retry {
		adm.SetAttr("retry", "true")
	}
	adm.End()
	if j.status == StatusQueued {
		j.queued = j.root.Child("queued")
	}
}

// admitLocked appends j to the bounded queue, false when full. Callers
// hold e.mu.
func (e *Engine) admitLocked(j *job) bool {
	if len(e.pending) >= e.queueCap {
		return false
	}
	e.pending = append(e.pending, j)
	e.cond.Signal()
	return true
}

// attachLocked resolves a Submit against an existing job record: completed
// jobs are cache hits (whatever their own history, *this* request is
// served without simulating), failed and cancelled ones re-enqueue for
// retry, pending ones are simply attached to. Callers hold e.mu.
func (e *Engine) attachLocked(j *job) (JobView, bool, error) {
	switch j.status {
	case StatusDone:
		view := viewOf(j)
		view.Cached = true
		return view, false, nil
	case StatusFailed, StatusCancelled:
		if !e.admitLocked(j) {
			return JobView{}, true, nil
		}
		j.status, j.err, j.cancelReq, j.progress = StatusQueued, "", false, 0
		// A retry restarts the trace: the tree always describes the
		// attempt that produced the job's current state.
		e.beginTraceLocked(j, true)
		e.obs.Log.Debug("run re-enqueued for retry", "run", j.id, "benchmark", j.req.Benchmark)
		e.publishJobLocked(j, Event{State: StatusQueued})
		e.campaignReopenLocked(j.id)
		return viewOf(j), false, nil
	default:
		return viewOf(j), false, nil
	}
}

// Cancel requests cancellation of the job with the given id. A queued job
// cancels immediately; a running one has its context cancelled, which
// stops the simulation at its next observer epoch and reports the
// terminal cancelled event asynchronously. Terminal jobs return
// ErrTerminal, unknown ids ErrUnknownJob.
func (e *Engine) Cancel(id string) (JobView, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return JobView{}, ErrUnknownJob
	}
	if terminal(j.status) {
		defer e.mu.Unlock()
		return viewOf(j), ErrTerminal
	}
	j.cancelReq = true
	switch j.status {
	case StatusQueued:
		for i, p := range e.pending {
			if p == j {
				e.pending = append(e.pending[:i], e.pending[i+1:]...)
				break
			}
		}
		// Finish inline under the lock: a worker that popped the job
		// concurrently re-checks cancelReq under this same lock, and
		// finishLocked's terminal guard makes whichever side loses the
		// race a no-op.
		e.finishLocked(j, nil, false, context.Canceled)
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	defer e.mu.Unlock()
	return viewOf(j), nil
}

// reportProgress updates the job record from a simulator epoch and
// publishes a throttled progress event; a job being cancelled reports
// nothing more.
func (e *Engine) reportProgress(j *job, done, total uint64) {
	if total == 0 {
		return
	}
	frac := float64(done) / float64(total)
	if frac > 1 {
		frac = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.status != StatusRunning || j.cancelReq || frac <= j.progress {
		return
	}
	if frac < 1 && frac-j.progress < progressDelta {
		return
	}
	j.progress = frac
	e.publishJobLocked(j, Event{State: StatusRunning, Progress: frac})
}

// finish records a job outcome and publishes its terminal event.
func (e *Engine) finish(j *job, res *lard.Result, cached bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finishLocked(j, res, cached, err)
}

// finishLocked is finish under the engine lock. A job already terminal is
// left untouched: Cancel and a worker pickup can race to finish the same
// job (Cancel sees it queued, the worker has already popped it), and
// exactly one of them may publish the terminal event and count the
// outcome. Callers hold e.mu.
func (e *Engine) finishLocked(j *job, res *lard.Result, cached bool, err error) {
	if terminal(j.status) {
		return
	}
	switch {
	case err != nil && (j.cancelReq || errors.Is(err, context.Canceled)):
		j.status, j.err = StatusCancelled, context.Canceled.Error()
		e.runsCancelled++
		e.publishJobLocked(j, Event{State: StatusCancelled, Progress: j.progress, Terminal: true})
	case err != nil:
		j.status, j.err = StatusFailed, err.Error()
		e.runsFailed++
		e.publishJobLocked(j, Event{State: StatusFailed, Progress: j.progress, Error: j.err, Terminal: true})
	default:
		j.status, j.cached, j.result, j.progress = StatusDone, cached, res, 1
		e.runsCompleted++
		e.publishJobLocked(j, Event{State: StatusDone, Progress: 1, Cached: cached, Terminal: true})
	}
	if !j.admittedAt.IsZero() {
		e.obs.RunDuration.ObserveDuration(time.Since(j.admittedAt))
	}
	// Ending the root closes any still-open phase span (queued on an
	// early cancel, simulating on a failure), so finished traces never
	// dangle.
	j.root.End()
	switch j.status {
	case StatusFailed:
		e.obs.Log.Warn("run failed", "run", j.id, "benchmark", j.req.Benchmark, "error", j.err)
	default:
		e.obs.Log.Debug("run finished", "run", j.id, "benchmark", j.req.Benchmark,
			"status", j.status, "cached", j.cached)
	}
	e.completedLocked(j)
}

// completedLocked enrolls a finished job for eviction and trims the
// registry to maxDone so a long-lived engine's memory stays bounded.
// Evicted ids release their event topic (once unobserved). Callers hold
// e.mu.
func (e *Engine) completedLocked(j *job) {
	j.enrolled++
	e.done = append(e.done, j)
	for len(e.done) > e.maxDone {
		old := e.done[0]
		e.done = e.done[1:]
		old.enrolled--
		// A retried job enrolls each time it finishes, and the id may
		// since have been taken by a newer job: only the job's latest
		// enrollment evicts it, and only while it is still terminal.
		if old.enrolled == 0 && e.jobs[old.id] == old && terminal(old.status) {
			delete(e.jobs, old.id)
			e.bus.release(old.id)
		}
	}
}

// Job returns a snapshot view of the job with the given id.
func (e *Engine) Job(id string) (JobView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return viewOf(j), true
}

// viewOf renders a job; the caller must hold e.mu (or otherwise own j).
func viewOf(j *job) JobView {
	return JobView{
		ID:        j.id,
		Benchmark: j.req.Benchmark,
		Scheme:    j.req.Scheme.Label(),
		Status:    j.status,
		Progress:  j.progress,
		Cached:    j.cached,
		Result:    j.result,
		Error:     j.err,
	}
}

// publishJobLocked stamps ev with j's identity and publishes it to the
// job's topic and to every campaign the job is a member of (with Campaign
// set). Terminal events additionally update campaign completion
// bookkeeping, possibly publishing a campaign-level terminal event.
// Callers hold e.mu.
func (e *Engine) publishJobLocked(j *job, ev Event) {
	ev.Job = j.id
	ev.Benchmark = j.req.Benchmark
	ev.Scheme = j.req.Scheme.Label()
	e.bus.publish(j.id, ev)
	for campID := range e.memberCamps[j.id] {
		cev := ev
		cev.Campaign = campID
		e.bus.publish(campID, cev)
	}
	if ev.Terminal {
		e.campaignMemberTerminalLocked(j.id, j.status)
	}
}

// SubscribeRun subscribes to a run's event topic, returning the replay
// history and the live feed. ok=false when the id has neither a registry
// record nor retained history.
func (e *Engine) SubscribeRun(id string) ([]Event, *Subscription, bool) {
	e.mu.Lock()
	_, known := e.jobs[id]
	e.mu.Unlock()
	if !known && !e.bus.hasTopic(id) {
		return nil, nil, false
	}
	hist, sub := e.bus.subscribe(id)
	return hist, sub, true
}

// SubscribeCampaign subscribes to a campaign's event topic. ok=false for
// unknown campaigns.
func (e *Engine) SubscribeCampaign(id string) ([]Event, *Subscription, bool) {
	e.mu.Lock()
	_, known := e.campaigns[id]
	e.mu.Unlock()
	if !known && !e.bus.hasTopic(id) {
		return nil, nil, false
	}
	hist, sub := e.bus.subscribe(id)
	return hist, sub, true
}

// EventStats returns the bus counters.
func (e *Engine) EventStats() EventStats { return e.bus.stats() }

// Trace returns the span tree recorded for the run with the given id
// (a content address, exactly as Job). ok=false when tracing is disabled
// or the trace has been evicted from the bounded registry.
func (e *Engine) Trace(id string) (obs.TraceView, bool) {
	return e.obs.Tracer.Tree(id)
}

// Timeline returns the epoch-resolved telemetry recorded for the run
// with the given id. ok=false when tracing is disabled or the timeline
// has been evicted from the bounded registry.
func (e *Engine) Timeline(id string) (obs.TimelineView, bool) {
	return e.obs.Timelines.View(id)
}

// Stats is the engine's point-in-time operational snapshot, the one that
// /stats and /metrics both render.
type Stats struct {
	// Workers is the pool size; Busy the workers currently simulating (0
	// with an empty queue means the pool is idle).
	Workers, Busy int
	// QueueLen and QueueCap are the bounded queue's depth and capacity.
	QueueLen, QueueCap int
	// Jobs counts registry jobs by status.
	Jobs map[string]int
	// Members counts the members of registered campaigns by job status.
	Members map[string]int
	// Campaigns is the registered-campaign count; CampaignsSeen counts
	// registrations ever made.
	Campaigns     int
	CampaignsSeen uint64
	// The run lifecycle counters. RunsCancelled counts jobs that reached
	// the cancelled state.
	RunsStarted, RunsCompleted, RunsFailed, RunsCached, RunsCancelled uint64
	// Events is the bus snapshot.
	Events EventStats
}

// Stats gathers every gauge and counter under one hold of the engine
// mutex so a reader never mixes states from different instants. The
// campaign-member states come from the job registry alone (no store I/O):
// members evicted after completion report as pending here, exactly as
// the campaign view renders them.
func (e *Engine) Stats() Stats {
	m := Stats{
		Jobs:    map[string]int{StatusQueued: 0, StatusRunning: 0, StatusDone: 0, StatusFailed: 0, StatusCancelled: 0},
		Members: map[string]int{StatusPending: 0, StatusQueued: 0, StatusRunning: 0, StatusDone: 0, StatusFailed: 0, StatusCancelled: 0},
	}
	e.mu.Lock()
	m.RunsStarted, m.RunsCompleted = e.runsStarted, e.runsCompleted
	m.RunsFailed, m.RunsCached, m.RunsCancelled = e.runsFailed, e.runsCached, e.runsCancelled
	m.CampaignsSeen, m.Campaigns = e.campaignsSeen, len(e.campaigns)
	m.QueueLen, m.QueueCap = len(e.pending), e.queueCap
	m.Workers, m.Busy = e.workers, e.busy
	for _, j := range e.jobs {
		m.Jobs[j.status]++
	}
	for _, c := range e.campaigns {
		for _, mem := range c.members {
			status := StatusPending
			if j, ok := e.jobs[mem.Key]; ok {
				status = j.status
			}
			m.Members[status]++
		}
	}
	e.mu.Unlock()
	m.Events = e.bus.stats()
	return m
}
