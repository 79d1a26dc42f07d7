// Package sim executes a workload on the coherence engine: it interleaves
// the per-core streams in global event order (each core is the paper's
// in-order, single-issue, 1-IPC pipeline that blocks on its memory
// accesses), implements the barrier synchronization of the parallel region,
// and aggregates the §3.4 metrics: completion time and its breakdown, the
// energy breakdown, L1 miss types, and the Figure-1 run-length histogram.
//
// One optional hook watches a run: Options.Observer (an obs.RunObserver)
// hears the four phase boundaries and an epoch every
// DefaultProgressEvery operations. Progress, cancellation, timelines and
// trace spans are all built on it, above this package.
package sim

import (
	"math/bits"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/stats"
	"lard/internal/trace"
)

// Options configure one simulation run.
//
// Observer is execution plumbing, not run identity: it is excluded from
// JSON encoding (and therefore from every resultstore content address —
// two runs that differ only in their observer are the same run) and must
// never change the simulated outcome.
//
// Identity fields carry explicit json tags spelling their Go names: the
// encoding predates the tags and existing content addresses are frozen,
// so the tags pin today's byte-exact encoding rather than restyle it.
// Every field must declare one side or the other; lard-lint's keyneutral
// check rejects untagged additions.
type Options struct {
	// Scheme is the LLC management scheme.
	Scheme coherence.Scheme `json:"Scheme"`
	// ASRLevel is ASR's replication probability level.
	ASRLevel float64 `json:"ASRLevel"`
	// Seed drives workload generation and ASR's lottery.
	Seed uint64 `json:"Seed"`
	// OpsScale scales per-core operation counts (1.0 = profile nominal).
	OpsScale float64 `json:"OpsScale"`
	// CheckInvariants enables the SWMR/inclusion checker and the home-stamp
	// oracle.
	CheckInvariants bool `json:"CheckInvariants"`
	// TrackRuns enables the Figure-1 run-length tracker.
	TrackRuns bool `json:"TrackRuns"`
	// Observer, when non-nil, watches the run: its Phase call fires at
	// the four phase boundaries (setup, trace_decode, coherence_loop,
	// finalize), its Epoch call every DefaultProgressEvery executed
	// operations and once more on every exit path, carrying the
	// telemetrySeries values. An Epoch that returns true stops the run.
	// A nil Observer costs one predictable branch per operation.
	Observer obs.RunObserver `json:"-"`
}

// DefaultProgressEvery is the Observer's epoch cadence, in executed
// memory operations: frequent enough that even scaled-down test runs
// report intermediate fractions, rare enough to stay invisible next to
// the per-operation simulation cost.
const DefaultProgressEvery = 4096

// Result is the outcome of one (benchmark, scheme) run.
type Result struct {
	// Benchmark and Scheme identify the run.
	Benchmark string
	Scheme    string
	// Cores is the simulated core count.
	Cores int
	// Ops is the total number of memory references executed.
	Ops uint64
	// CompletionTime is the parallel-region completion time (the slowest
	// core's finish cycle).
	CompletionTime mem.Cycles
	// Time is the per-core average latency breakdown; its Total() equals
	// the average per-core busy time and tracks CompletionTime.
	Time stats.TimeBreakdown
	// EnergyPJ is the per-component dynamic energy in picojoules.
	EnergyPJ [energy.NumComponents]float64
	// Miss counts accesses by service point.
	Miss stats.MissCounts
	// Runs is the Figure-1 histogram (nil unless TrackRuns).
	Runs *stats.RunLengthHist
	// PageReclassifications counts R-NUCA private->shared transitions.
	PageReclassifications uint64
}

// Clone returns an independent deep copy: mutating the clone (for example
// relabeling Scheme) never affects r. Result is a value struct except for
// the optional Runs histogram, which is copied.
func (r *Result) Clone() *Result {
	c := *r
	if r.Runs != nil {
		h := *r.Runs
		c.Runs = &h
	}
	return &c
}

// EnergyTotal returns the total dynamic energy in picojoules.
func (r *Result) EnergyTotal() float64 {
	var t float64
	for _, v := range r.EnergyPJ {
		t += v
	}
	return t
}

// sched is the event scheduler. The simulated cores are the only event
// sources and each has at most one pending wake-up, so the queue is a
// tournament (winner) tree over the cores: the leaves are the cores'
// next wake times, padded with idle leaves to a power of two, and every
// internal node holds the earlier of its two children's winners — the
// left one on equal times. Left subtrees hold the lower core ids, so the
// root is the earliest pending (time, lowest core id) pair: exactly the
// total order of the container/heap queue this loop once ran, without
// its per-operation interface boxing. pop and push each replay one
// leaf-to-root path, log2(n) compares (6 at 64 cores) instead of a scan
// over every pending core.
type sched struct {
	// next is the per-leaf next wake time; schedIdle = no event. Leaves
	// past the core count stay idle.
	next []mem.Cycles
	// win[i] is the leaf winning node i's subtree. Node 1 is the root, the
	// children of node i are 2i and 2i+1, and leaf c is node len(next)+c.
	win    []int32
	active int // number of cores with a pending wake-up
}

// schedIdle marks a core with no pending event. Real wake times grow by
// bounded per-operation latencies from zero and can never reach it.
const schedIdle = ^mem.Cycles(0)

// opChunk is the per-core trace window, in operations: large enough to
// amortize the refill call, small enough that 64 cores' windows stay
// cache-resident next to the simulator's own state.
const opChunk = 256

// newSched returns a scheduler with all n cores pending at time 0.
func newSched(n int) *sched {
	size := 1 << bits.Len(uint(n-1))
	s := &sched{next: make([]mem.Cycles, size), win: make([]int32, 2*size), active: n}
	for c := range size {
		if c >= n {
			s.next[c] = schedIdle
		}
		s.win[size+c] = int32(c)
	}
	for i := size - 1; i > 0; i-- {
		s.win[i] = s.earlier(s.win[2*i], s.win[2*i+1])
	}
	return s
}

// earlier returns the leaf with the earlier wake time, l on ties.
func (s *sched) earlier(l, r int32) int32 {
	if s.next[r] < s.next[l] {
		return r
	}
	return l
}

// replay recomputes the winners on leaf c's path to the root after its
// wake time changed.
func (s *sched) replay(c int32) {
	for i := (len(s.next) + int(c)) >> 1; i > 0; i >>= 1 {
		s.win[i] = s.earlier(s.win[2*i], s.win[2*i+1])
	}
}

// pop removes and returns the earliest pending (time, core) pair, lowest
// core id on ties. Only valid while active > 0.
func (s *sched) pop() (mem.Cycles, mem.CoreID) {
	c := s.win[1]
	t := s.next[c]
	s.next[c] = schedIdle
	s.replay(c)
	s.active--
	return t, mem.CoreID(c)
}

// push schedules core c's next wake-up at time t. c must have no pending
// wake-up.
func (s *sched) push(t mem.Cycles, c mem.CoreID) {
	s.next[c] = t
	s.replay(int32(c))
	s.active++
}

// Run simulates profile p on configuration cfg and returns the aggregated
// result. Runs are deterministic for fixed inputs. When an Observer epoch
// asks to stop, Run returns nil — the only condition under which it does.
func Run(cfg *config.Config, p trace.Profile, opt Options) *Result {
	if opt.OpsScale == 0 {
		opt.OpsScale = 1
	}
	// Phase stamps touch the clock only at the four phase boundaries, so
	// an unset Observer costs nothing here and a set one stays invisible
	// next to the per-operation simulation cost.
	ob := opt.Observer
	var phaseStart time.Time
	if ob != nil {
		phaseStart = time.Now()
	}
	phase := func(name string) {
		if ob == nil {
			return
		}
		now := time.Now()
		ob.Phase(name, phaseStart, now.Sub(phaseStart))
		phaseStart = now
	}
	eng := coherence.New(cfg, coherence.Options{
		Scheme:          opt.Scheme,
		ASRLevel:        opt.ASRLevel,
		Seed:            opt.Seed,
		CheckInvariants: opt.CheckInvariants,
		TrackRuns:       opt.TrackRuns,
	})
	phase("setup")
	w := trace.Generate(p, cfg, opt.OpsScale, opt.Seed)
	phase("trace_decode")

	n := cfg.Cores
	st := &runState{
		eng: eng,
		w:   w,
		sch: newSched(n),
		ob:  ob,

		breakdown: make([]stats.TimeBreakdown, n),
		miss:      make([]stats.MissCounts, n),
		finish:    make([]mem.Cycles, n),
		atBarrier: make([]bool, n),
		arriveAt:  make([]mem.Cycles, n),
		running:   n,

		// Per-core chunk buffers: each stream refills a reusable window of
		// opChunk operations, so the steady-state loop reads the next
		// operation from a flat slice instead of paying a generator call per
		// access. One backing array serves all cores; pos==cnt marks an
		// empty window.
		bufs: make([]trace.Op, n*opChunk),
		pos:  make([]int, n),
		cnt:  make([]int, n),
	}

	// Epoch setup happens once per run (allocation is fine here); the
	// per-epoch path reuses st.ep and never allocates. Remaining() is
	// exact here — the chunk windows above are filled lazily, after this
	// count.
	if ob != nil {
		st.checkLeft = DefaultProgressEvery
		st.ep.Series = telemetrySeries
		st.ep.Values = make([]uint64, len(telemetrySeries))
		for c := 0; c < n; c++ {
			st.ep.Total += uint64(w.Streams[c].Remaining())
		}
	}

	stopped := st.loop()
	phase("coherence_loop")
	if ob != nil {
		// The final epoch, on every exit path (a zero-delta epoch when the
		// op count landed exactly on the cadence): after it, a recorder's
		// every counter series sums to its final cumulative value — "ops"
		// to Result.Ops, the miss series to Result.Miss — which is the
		// conservation the timeline tests pin, for stopped runs too.
		st.epoch(true)
	}
	if stopped {
		return nil
	}

	r := &Result{
		Benchmark:             p.Name,
		Scheme:                schemeLabel(cfg, opt),
		Cores:                 n,
		Ops:                   st.totalOps,
		CompletionTime:        st.completion,
		EnergyPJ:              eng.Meter().Breakdown(),
		PageReclassifications: eng.PageReclassifications(),
	}
	for c := 0; c < n; c++ {
		r.Time.Add(st.breakdown[c])
		r.Miss.Add(st.miss[c])
	}
	// Per-core average breakdown (what Figure 7 stacks).
	for i := range r.Time {
		r.Time[i] /= mem.Cycles(n)
	}
	if opt.TrackRuns {
		r.Runs = eng.RunHistogram()
	}
	phase("finalize")
	return r
}

// runState is the mutable state of one run: the scheduler, the per-core
// aggregates the event loop drives, the trace windows and the observer
// cadence.
type runState struct {
	eng *coherence.Engine
	w   *trace.Workload

	sch        *sched
	breakdown  []stats.TimeBreakdown
	miss       []stats.MissCounts
	finish     []mem.Cycles
	atBarrier  []bool
	arriveAt   []mem.Cycles
	running    int
	waiting    int
	totalOps   uint64
	completion mem.Cycles

	bufs []trace.Op
	pos  []int
	cnt  []int

	ob        obs.RunObserver
	checkLeft uint64
	ep        obs.RunEpoch
}

// loop is the event loop: strict global (time, core) order, one access at
// a time. It returns true when the observer stopped the run.
func (st *runState) loop() (stopped bool) {
	sch, bufs, pos, cnt := st.sch, st.bufs, st.pos, st.cnt
	for sch.active > 0 {
		now, c := sch.pop()
		// Popped times never go backwards while no core waits at a
		// barrier, so now bounds every later access from below. During a
		// barrier the watermark stays at the first arrival: a core that
		// finishes without reaching the barrier releases the waiting cores
		// at their latest arrival, which may lie before the finishing
		// core's time.
		if st.waiting == 0 {
			st.eng.Advance(now)
		}
		if pos[c] == cnt[c] {
			cnt[c] = st.w.Streams[c].Fill(bufs[int(c)*opChunk : (int(c)+1)*opChunk])
			pos[c] = 0
		}
		if cnt[c] == 0 {
			st.coreFinished(c, now)
			continue
		}
		op := &bufs[int(c)*opChunk+pos[c]]
		pos[c]++
		if op.Barrier {
			st.coreAtBarrier(c, now)
			continue
		}
		t := now + mem.Cycles(op.Gap)
		res := st.eng.Access(c, t, coherence.Op{
			Type:  op.Type,
			Line:  mem.LineOf(op.Addr),
			Class: op.Class,
		})
		if st.commit(c, mem.Cycles(op.Gap), res) {
			return true
		}
	}
	return false
}

// coreFinished retires a drained core. A finished core can no longer reach
// a barrier; if everyone else is already waiting, release them.
func (st *runState) coreFinished(c mem.CoreID, now mem.Cycles) {
	st.finish[c] = now
	st.running--
	st.completion = max(st.completion, now)
	if st.waiting > 0 && st.waiting == st.running {
		releaseBarrier(st.sch, st.atBarrier, st.arriveAt, st.breakdown, &st.waiting)
	}
}

// coreAtBarrier parks a core at the barrier, releasing everyone when it is
// the last runner to arrive.
func (st *runState) coreAtBarrier(c mem.CoreID, now mem.Cycles) {
	st.atBarrier[c] = true
	st.arriveAt[c] = now
	st.waiting++
	if st.waiting == st.running {
		releaseBarrier(st.sch, st.atBarrier, st.arriveAt, st.breakdown, &st.waiting)
	}
}

// commit applies one executed access to the run aggregates, delivers the
// observer's epoch when one is due, and reschedules the core. It returns
// true when the observer stopped the run.
func (st *runState) commit(c mem.CoreID, gap mem.Cycles, res coherence.AccessResult) (stop bool) {
	st.breakdown[c][stats.Compute] += gap
	st.breakdown[c].Add(res.Breakdown)
	st.miss[c][res.Miss]++
	st.totalOps++
	if st.ob != nil {
		st.checkLeft--
		if st.checkLeft == 0 {
			st.checkLeft = DefaultProgressEvery
			if st.epoch(false) {
				return true
			}
		}
	}
	st.sch.push(res.Done, c)
	return false
}

// epoch delivers one observer epoch from the run's live counters and
// reports whether the observer asked to stop.
func (st *runState) epoch(final bool) bool {
	fillTelemetry(st.ep.Values, st.eng, st.totalOps, st.breakdown, st.miss)
	st.ep.Done, st.ep.Final = st.totalOps, final
	return st.ob.Epoch(&st.ep)
}

// releaseBarrier wakes every parked core at the latest arrival time,
// charging the wait to the Synchronization component.
func releaseBarrier(sch *sched, atBarrier []bool, arriveAt []mem.Cycles, breakdown []stats.TimeBreakdown, waiting *int) {
	var tmax mem.Cycles
	for c := range atBarrier {
		if atBarrier[c] {
			tmax = max(tmax, arriveAt[c])
		}
	}
	for c := range atBarrier {
		if atBarrier[c] {
			breakdown[c][stats.Synchronization] += tmax - arriveAt[c]
			atBarrier[c] = false
			sch.push(tmax, mem.CoreID(c))
		}
	}
	*waiting = 0
}

// schemeLabel renders the run's scheme the way the figures label it
// (RT-<threshold> for the locality-aware protocol), as declared by the
// scheme's registry descriptor.
func schemeLabel(cfg *config.Config, opt Options) string {
	return coherence.LabelFor(opt.Scheme, cfg)
}
