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
	"fmt"
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
// tournament tree over the cores: the leaves hold the cores' wake-up keys,
// padded with idle leaves to a power of two, and every internal node holds
// the smaller of its two children's keys. A key packs a wake time above
// the core id, uint64(t)<<coreBits | c, so comparing keys orders by time
// and then by the lowest core id, and the root is the earliest pending
// (time, lowest core id) pair: exactly the total order of the
// container/heap queue this loop once ran. No node reads a side array. An
// update replays one leaf-to-root path, log2(n) compares (6 at 64 cores).
//
// The event loop peeks at the root and, after the access, retimes that
// leaf: one path pass per access. Only a drained core or one reaching a
// barrier is popped, and the barrier release pushes it back.
type sched struct {
	// key[i] is node i's key. Node 1 is the root, the children of node i
	// are 2i and 2i+1, and core c's leaf is node len(key)/2+c. Leaves past
	// the core count stay idle.
	key    []uint64
	active int // number of cores with a pending wake-up
}

// coreBits is the width of the core id in a scheduler key:
// config.Validate caps a machine at 64 cores.
const coreBits = 6

// schedIdle is the key of a core with no pending event. Real keys are
// smaller: pack refuses wake times whose shift would reach it.
const schedIdle = ^uint64(0)

// maxWake bounds the wake times a key can hold.
const maxWake = mem.Cycles(1) << (64 - coreBits)

// opChunk is the per-core trace window, in operations: large enough to
// amortize the refill call, small enough that 64 cores' windows stay
// cache-resident next to the simulator's own state.
const opChunk = 256

// newSched returns a scheduler with all n cores pending at time 0.
func newSched(n int) *sched {
	size := 1 << bits.Len(uint(n-1))
	s := &sched{key: make([]uint64, 2*size), active: n}
	for c := range size {
		s.key[size+c] = schedIdle
		if c < n {
			s.key[size+c] = uint64(c)
		}
	}
	for i := size - 1; i > 0; i-- {
		s.key[i] = min(s.key[2*i], s.key[2*i+1])
	}
	return s
}

// pack returns core c's key for wake time t. A wake time at or past
// maxWake would wrap into the core bits and reorder the queue, so it
// panics instead.
func pack(t mem.Cycles, c mem.CoreID) uint64 {
	if t >= maxWake {
		panic(fmt.Sprintf("sim: core %d wake time %d reaches the scheduler's 2^%d-cycle range", c, t, 64-coreBits))
	}
	return uint64(t)<<coreBits | uint64(c)
}

// set stores key k at core c's leaf and replays the leaf's path to the
// root.
func (s *sched) set(c mem.CoreID, k uint64) {
	i := len(s.key)/2 + int(c)
	s.key[i] = k
	for ; i > 1; i >>= 1 {
		k = min(k, s.key[i^1])
		s.key[i>>1] = k
	}
}

// peek returns the earliest pending (time, core) pair, lowest core id on
// ties, and leaves it pending. Only valid while active > 0.
func (s *sched) peek() (mem.Cycles, mem.CoreID) {
	k := s.key[1]
	return mem.Cycles(k >> coreBits), mem.CoreID(k & (1<<coreBits - 1))
}

// retime moves pending core c's wake-up to time t.
func (s *sched) retime(c mem.CoreID, t mem.Cycles) {
	s.set(c, pack(t, c))
}

// pop removes and returns the earliest pending (time, core) pair, lowest
// core id on ties. Only valid while active > 0.
func (s *sched) pop() (mem.Cycles, mem.CoreID) {
	t, c := s.peek()
	s.set(c, schedIdle)
	s.active--
	return t, c
}

// push schedules core c's next wake-up at time t. c must have no pending
// wake-up.
func (s *sched) push(t mem.Cycles, c mem.CoreID) {
	s.set(c, pack(t, c))
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
	var res coherence.AccessResult
	for sch.active > 0 {
		now, c := sch.peek()
		// Scheduled times never go backwards while no core waits at a
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
			sch.pop()
			st.coreFinished(c, now)
			continue
		}
		op := &bufs[int(c)*opChunk+pos[c]]
		pos[c]++
		if op.Barrier {
			sch.pop()
			st.coreAtBarrier(c, now)
			continue
		}
		gap := mem.Cycles(op.Gap)
		st.eng.AccessInto(&res, c, now+gap, coherence.Op{
			Type:  op.Type,
			Line:  mem.LineOf(op.Addr),
			Class: op.Class,
		})
		if st.commit(c, gap, &res) {
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
// observer's epoch when one is due, and moves the core's wake-up to the
// access's completion. It returns true when the observer stopped the run.
func (st *runState) commit(c mem.CoreID, gap mem.Cycles, res *coherence.AccessResult) (stop bool) {
	b := &st.breakdown[c]
	b[stats.Compute] += gap
	b.Add(res.Breakdown)
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
	st.sch.retime(c, res.Done)
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
