package perf

import (
	"math"
	"math/bits"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/sim"
	"lard/internal/stats"
	"lard/internal/trace"
)

// The replay driver reproduces sim.Run's sequential event loop from the
// simulator's public calls alone — trace.Generate, Stream.Fill,
// coherence.New and Engine.Access — and times each call from outside, so
// the benchmark can split host time into layers without instrumenting the
// program. Its outcome must equal sim.Run's exactly (replay_test.go pins
// that for every registered scheme); a traced run whose replay differs is
// counted as failed, so the layer numbers always describe the program the
// untraced runs measure.

const (
	// opChunk is the per-core trace window, the simulator's own size, so
	// fills cost what they cost in sim.Run.
	opChunk = 256
	// sampleEvery keeps one in this many fill and access spans in full; the
	// rest only feed the in-place aggregates.
	sampleEvery = 4096
	// telemetryEvery is the access cadence at which the directory
	// population is sampled for its maximum.
	telemetryEvery = 4096
	// histBuckets is the size of each span kind's latency histogram:
	// bucket i counts spans of [2^(i-1), 2^i) ns, the last one is open.
	histBuckets = 24
)

// Span is one span kept in full for the trace file. Times are nanoseconds
// since the recorder started, with the timer's cost left in; Parent is the
// enclosing span's ID (0 for a run's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg aggregates one span kind in place, the timer's cost subtracted.
type agg struct {
	Count uint64              `json:"count"`
	SumNS int64               `json:"sum_ns"`
	Hist  [histBuckets]uint64 `json:"hist"`
}

func (a *agg) add(d int64) {
	a.Count++
	a.SumNS += d
	a.Hist[min(bits.Len64(uint64(d)), histBuckets-1)]++
}

// Recorder accumulates the replay driver's spans and simulated counters
// over any number of replays.
type Recorder struct {
	epoch time.Time
	// TimerNS is the calibrated cost of one clock read, subtracted from
	// every aggregated span.
	TimerNS int64 `json:"timer_ns"`

	Runs    int                     `json:"runs"`
	Ops     uint64                  `json:"ops"`
	SetupNS []int64                 `json:"setup_ns"`
	LoopNS  int64                   `json:"loop_ns"`
	Fill    agg                     `json:"fill"`
	Access  [stats.NumMissTypes]agg `json:"access"`

	Replications  uint64 `json:"replications"`
	Invalidations uint64 `json:"invalidations"`
	Promotions    uint64 `json:"classifier_promotions"`
	DirectoryMax  uint64 `json:"directory_entries_max"`
	FlitHops      uint64 `json:"flit_hops"`
	LinkWait      uint64 `json:"link_wait_cycles"`
	Completion    uint64 `json:"completion_cycles"`

	Spans []Span `json:"spans"`

	fills, accesses uint64
}

// NewRecorder starts a recorder and calibrates its clock.
func NewRecorder() *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.TimerNS = r.calibrate()
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// calibrate measures one clock read as the best of several back-to-back
// batches. A span bracketed by two reads contains about one read's cost.
func (r *Recorder) calibrate() int64 {
	const n = 1 << 14
	best := int64(math.MaxInt64)
	for range 8 {
		t0 := r.now()
		for range n {
			r.now()
		}
		best = min(best, (r.now()-t0)/n)
	}
	return best
}

// span keeps a full span and returns its ID.
func (r *Recorder) span(name string, start, end int64, parent, run int) int {
	id := len(r.Spans) + 1
	r.Spans = append(r.Spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

func (r *Recorder) less(d int64) int64 { return max(d-r.TimerNS, 0) }

func (r *Recorder) fill(f0, f1 int64, parent, run int) {
	r.Fill.add(r.less(f1 - f0))
	if r.fills++; r.fills%sampleEvery == 0 {
		r.span("fill", f0, f1, parent, run)
	}
}

func (r *Recorder) access(t stats.MissType, a0, a1 int64, parent, run int) {
	r.Access[t].add(r.less(a1 - a0))
	if r.accesses++; r.accesses%sampleEvery == 0 {
		r.span("access "+t.String(), a0, a1, parent, run)
	}
}

// Replay simulates profile p on cfg exactly as sim.Run's sequential loop
// does, recording spans run → setup → loop → {fill, access} into rec. It
// ignores sim.Options' observer fields.
func Replay(cfg *config.Config, p trace.Profile, opt sim.Options, rec *Recorder) *sim.Result {
	if opt.OpsScale == 0 {
		opt.OpsScale = 1
	}
	rec.Runs++
	run := rec.Runs
	runStart := rec.now()
	root := rec.span("run", runStart, 0, 0, run)
	eng := coherence.New(cfg, coherence.Options{
		Scheme:          opt.Scheme,
		ASRLevel:        opt.ASRLevel,
		Seed:            opt.Seed,
		CheckInvariants: opt.CheckInvariants,
		TrackRuns:       opt.TrackRuns,
	})
	w := trace.Generate(p, cfg, opt.OpsScale, opt.Seed)
	setupEnd := rec.now()
	rec.SetupNS = append(rec.SetupNS, setupEnd-runStart)
	rec.span("setup", runStart, setupEnd, root, run)

	n := cfg.Cores
	var (
		next      = make([]mem.Cycles, n) // per-core wake time, valid while pending
		pending   = ^uint64(0) >> (64 - n)
		active    = n
		bufs      = make([]trace.Op, n*opChunk)
		pos       = make([]int, n)
		cnt       = make([]int, n)
		breakdown = make([]stats.TimeBreakdown, n)
		miss      = make([]stats.MissCounts, n)
		atBarrier = make([]bool, n)
		arriveAt  = make([]mem.Cycles, n)
		running   = n
		waiting   int
		ops       uint64
		done      mem.Cycles
	)
	push := func(t mem.Cycles, c int) {
		next[c] = t
		pending |= 1 << uint(c)
		active++
	}
	// release wakes every core parked at the barrier at the latest arrival,
	// charging the wait to Synchronization.
	release := func() {
		var tmax mem.Cycles
		for c, at := range atBarrier {
			if at {
				tmax = max(tmax, arriveAt[c])
			}
		}
		for c, at := range atBarrier {
			if at {
				breakdown[c][stats.Synchronization] += tmax - arriveAt[c]
				atBarrier[c] = false
				push(tmax, c)
			}
		}
		waiting = 0
	}

	loopStart := rec.now()
	loop := rec.span("loop", loopStart, 0, root, run)
	for active > 0 {
		// Earliest (time, core), lowest core on ties: sim.Run's order.
		b := pending
		c := bits.TrailingZeros64(b)
		now := next[c]
		for b &= b - 1; b != 0; b &= b - 1 {
			if i := bits.TrailingZeros64(b); next[i] < now {
				c, now = i, next[i]
			}
		}
		pending &^= 1 << uint(c)
		active--

		if pos[c] == cnt[c] {
			f0 := rec.now()
			cnt[c] = w.Streams[c].Fill(bufs[c*opChunk : (c+1)*opChunk])
			rec.fill(f0, rec.now(), loop, run)
			pos[c] = 0
		}
		if cnt[c] == 0 {
			running--
			done = max(done, now)
			if waiting > 0 && waiting == running {
				release()
			}
			continue
		}
		op := &bufs[c*opChunk+pos[c]]
		pos[c]++
		if op.Barrier {
			atBarrier[c] = true
			arriveAt[c] = now
			if waiting++; waiting == running {
				release()
			}
			continue
		}
		a0 := rec.now()
		res := eng.Access(mem.CoreID(c), now+mem.Cycles(op.Gap), coherence.Op{
			Type:  op.Type,
			Line:  mem.LineOf(op.Addr),
			Class: op.Class,
		})
		rec.access(res.Miss, a0, rec.now(), loop, run)
		breakdown[c][stats.Compute] += mem.Cycles(op.Gap)
		breakdown[c].Add(res.Breakdown)
		miss[c][res.Miss]++
		if ops++; ops%telemetryEvery == 0 {
			rec.DirectoryMax = max(rec.DirectoryMax, eng.Telemetry().DirectoryEntries)
		}
		push(res.Done, c)
	}
	loopEnd := rec.now()
	rec.Spans[loop-1].End = loopEnd
	rec.LoopNS += loopEnd - loopStart
	rec.Ops += ops

	tel := eng.Telemetry()
	rec.Replications += tel.Replications
	rec.Invalidations += tel.Invalidations
	rec.Promotions += tel.ClassifierPromotions
	rec.DirectoryMax = max(rec.DirectoryMax, tel.DirectoryEntries)
	rec.FlitHops += eng.Mesh().FlitHops()
	rec.LinkWait += uint64(eng.Mesh().LinkWait())
	rec.Completion += uint64(done)

	r := &sim.Result{
		Benchmark:             p.Name,
		Scheme:                coherence.LabelFor(opt.Scheme, cfg),
		Cores:                 n,
		Ops:                   ops,
		CompletionTime:        done,
		EnergyPJ:              eng.Meter().Breakdown(),
		PageReclassifications: eng.PageReclassifications(),
	}
	for c := range n {
		r.Time.Add(breakdown[c])
		r.Miss.Add(miss[c])
	}
	for i := range r.Time {
		r.Time[i] /= mem.Cycles(n)
	}
	if opt.TrackRuns {
		r.Runs = eng.RunHistogram()
	}
	rec.Spans[root-1].End = rec.now()
	return r
}

// missNames are the metric stems of the service points, in stats.MissType
// order.
var missNames = [stats.NumMissTypes]string{"l1_hit", "replica_hit", "home_hit", "offchip"}

// layerMetrics reports the per-layer split of every replay recorded so far.
func (r *Recorder) layerMetrics(set func(name string, v float64, unit string, n int)) {
	ops := float64(r.Ops)
	var accN uint64
	var accNS int64
	for _, a := range r.Access {
		accN += a.Count
		accNS += a.SumNS
	}
	setup := make([]float64, len(r.SetupNS))
	for i, d := range r.SetupNS {
		setup[i] = float64(d) / 1e6
	}
	// The loop span holds the aggregated spans plus the other half of each
	// span's two clock reads.
	self := r.LoopNS - r.Fill.SumNS - accNS - 2*r.TimerNS*int64(r.Fill.Count+accN)
	n := r.Runs
	set("trace.fill_ns_per_op", ratio(float64(r.Fill.SumNS), ops), "ns/op", int(r.Fill.Count))
	set("sim.loop_self_ns_per_op", ratio(float64(self), ops), "ns/op", n)
	set("sim.setup_ms", median(setup), "ms", n)
	for t, name := range missNames {
		a := r.Access[t]
		set("coherence."+name+"_ns", ratio(float64(a.SumNS), float64(a.Count)), "ns", int(a.Count))
		set("coherence."+name+"_frac", ratio(float64(a.Count), ops), "ratio", n)
	}
	set("coherence.access_share", ratio(float64(accNS), float64(r.LoopNS)), "ratio", n)
	set("coherence.replications_per_kop", ratio(1000*float64(r.Replications), ops), "1/kop", n)
	set("coherence.invalidations_per_kop", ratio(1000*float64(r.Invalidations), ops), "1/kop", n)
	set("coherence.classifier_promotions_per_kop", ratio(1000*float64(r.Promotions), ops), "1/kop", n)
	set("coherence.directory_entries_max", float64(r.DirectoryMax), "count", n)
	set("network.flit_hops_per_op", ratio(float64(r.FlitHops), ops), "hops/op", n)
	set("network.link_wait_cycles_per_op", ratio(float64(r.LinkWait), ops), "cycles/op", n)
	set("sim.completion_cycles", ratio(float64(r.Completion), float64(n)), "cycles", n)
}
