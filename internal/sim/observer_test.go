package sim

import (
	"testing"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/obs"
	"lard/internal/stats"
	"lard/internal/trace"
)

// phaseRec is one Phase call.
type phaseRec struct {
	name  string
	start time.Time
	d     time.Duration
}

// logObserver records every observer call. stop, when set, decides each
// epoch's return value.
type logObserver struct {
	phases []phaseRec
	epochs []obs.RunEpoch
	stop   func(e *obs.RunEpoch) bool
}

func (o *logObserver) Phase(name string, start time.Time, d time.Duration) {
	o.phases = append(o.phases, phaseRec{name, start, d})
}

func (o *logObserver) Epoch(e *obs.RunEpoch) bool {
	c := *e
	c.Values = append([]uint64(nil), e.Values...)
	o.epochs = append(o.epochs, c)
	return o.stop != nil && o.stop(e)
}

// stopAtFirst stops the run at its first epoch.
func stopAtFirst(*obs.RunEpoch) bool { return true }

// tee fans every call out to several observers and stops when any asks to.
type tee []obs.RunObserver

func (t tee) Phase(name string, start time.Time, d time.Duration) {
	for _, o := range t {
		o.Phase(name, start, d)
	}
}

func (t tee) Epoch(e *obs.RunEpoch) bool {
	stop := false
	for _, o := range t {
		stop = o.Epoch(e) || stop
	}
	return stop
}

// TestProgressCallback pins the epoch contract: monotone non-decreasing
// done counts at the fixed cadence, at least one strictly-interior epoch,
// a final done == total epoch that alone carries Final, and a result
// identical to the same run without an observer.
func TestProgressCallback(t *testing.T) {
	var ob logObserver
	r := runSmall(t, coherence.SNUCA, "BARNES", Options{Observer: &ob})
	if r == nil {
		t.Fatal("observed run returned nil")
	}
	if len(ob.epochs) < 2 {
		t.Fatalf("got %d epochs, want at least an interior one and a final one", len(ob.epochs))
	}
	total := ob.epochs[0].Total
	if total == 0 {
		t.Fatal("epoch total is zero")
	}
	interior := false
	for i, e := range ob.epochs {
		if e.Total != total {
			t.Fatalf("epoch %d changed total: %d -> %d", i, total, e.Total)
		}
		if i > 0 && e.Done < ob.epochs[i-1].Done {
			t.Fatalf("epoch %d went backwards: %d after %d", i, e.Done, ob.epochs[i-1].Done)
		}
		if last := i == len(ob.epochs)-1; e.Final != last {
			t.Fatalf("epoch %d Final = %v", i, e.Final)
		}
		if !e.Final && e.Done != uint64(i+1)*DefaultProgressEvery {
			t.Fatalf("epoch %d at %d ops, want the %d-op cadence", i, e.Done, DefaultProgressEvery)
		}
		if e.Done > 0 && e.Done < total {
			interior = true
		}
	}
	if !interior {
		t.Fatal("no strictly-interior epoch")
	}
	last := ob.epochs[len(ob.epochs)-1]
	if last.Done != total || last.Done != r.Ops || last.Values[0] != r.Ops {
		t.Fatalf("final epoch %d/%d (ops series %d), want done == total == Ops (%d)", last.Done, total, last.Values[0], r.Ops)
	}
	if bare := runSmall(t, coherence.SNUCA, "BARNES", Options{}); *bare != *r {
		t.Fatalf("observer changed the run:\nbare     %+v\nobserved %+v", bare, r)
	}
}

// TestInterrupt pins stopping: an epoch that returns true makes Run return
// nil instead of finishing the workload, after one final epoch at the same
// op count.
func TestInterrupt(t *testing.T) {
	ob := logObserver{stop: func(e *obs.RunEpoch) bool { return e.Done >= 2*DefaultProgressEvery }}
	if r := runSmall(t, coherence.SNUCA, "BARNES", Options{Observer: &ob}); r != nil {
		t.Fatalf("stopped run returned a result (%d ops)", r.Ops)
	}
	if n := len(ob.epochs); n != 3 {
		t.Fatalf("got %d epochs, want two at the cadence and a final one", n)
	}
	final := ob.epochs[2]
	if !final.Final || final.Done != 2*DefaultProgressEvery || final.Done >= final.Total {
		t.Fatalf("final epoch %+v, want Final at the stopping op count", final)
	}
}

// chanStop stops the run once its channel is closed.
type chanStop <-chan struct{}

func (chanStop) Phase(string, time.Time, time.Duration) {}

func (c chanStop) Epoch(*obs.RunEpoch) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestCancelRace stops runs from another goroutine while they are live: a
// timer goroutine closes a channel the observer polls at each epoch, so
// repeated runs are cut short at varying points (and sometimes not at
// all), and the race detector sees the event loop's epoch read the
// channel while the timer closes it.
func TestCancelRace(t *testing.T) {
	p, err := trace.ProfileByName("DEDUP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Small()
	cfg.RT = 3
	for i := 0; i < 24; i++ {
		stop := make(chan struct{})
		if delay := time.Duration(i%8) * 150 * time.Microsecond; i%8 != 7 {
			// i%8 == 7 leaves the run uninterrupted end to end.
			go func() {
				time.Sleep(delay)
				close(stop)
			}()
		}
		res := Run(cfg, p, Options{
			Scheme:   coherence.LocalityAware,
			OpsScale: 0.05,
			Observer: chanStop(stop),
		})
		if i%8 == 7 && res == nil {
			t.Fatal("uninterrupted run returned nil")
		}
		if res != nil && res.Ops == 0 {
			t.Fatal("completed run recorded no ops")
		}
	}
}

// checkPhases requires the phases to be exactly want, in order, each
// starting where the previous one ended.
func checkPhases(t *testing.T, got []phaseRec, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d phases %+v, want %v", len(got), got, want)
	}
	for i, ph := range got {
		if ph.name != want[i] || ph.start.IsZero() || ph.d < 0 {
			t.Fatalf("phase %d = %+v, want %s with a start and a duration", i, ph, want[i])
		}
		if i > 0 && !ph.start.Equal(got[i-1].start.Add(got[i-1].d)) {
			t.Fatalf("phase %s does not start where %s ended", ph.name, got[i-1].name)
		}
	}
}

// TestTimingFilled checks the phase calls: a completed run reports the
// four phases in order, partitioning its wall time, the coherence loop
// taking a measurable share.
func TestTimingFilled(t *testing.T) {
	var ob logObserver
	if r := runSmall(t, coherence.LocalityAware, "BARNES", Options{Observer: &ob}); r == nil {
		t.Fatal("run returned nil")
	}
	checkPhases(t, ob.phases, "setup", "trace_decode", "coherence_loop", "finalize")
	if ob.phases[2].d <= 0 {
		t.Errorf("coherence_loop = %v, want > 0", ob.phases[2].d)
	}
}

// TestTimingIsKeyNeutralAndDeterministic checks that a Recorder, a
// progress log and a stop observer that never fires, alone or teed
// together, change nothing about the simulated outcome: every result is
// identical to an unobserved run, field for field.
func TestTimingIsKeyNeutralAndDeterministic(t *testing.T) {
	bare := runSmall(t, coherence.LocalityAware, "DEDUP", Options{Seed: 7})
	never := chanStop(make(chan struct{}))
	rec := obs.NewRecorder()
	for _, ob := range []obs.RunObserver{rec, &logObserver{}, never, tee{obs.NewRecorder(), &logObserver{}, never}} {
		got := runSmall(t, coherence.LocalityAware, "DEDUP", Options{Seed: 7, Observer: ob})
		if got == nil || *got != *bare {
			t.Errorf("observed run (%T) diverged from bare run:\nbare     %+v\nobserved %+v", ob, bare, got)
		}
	}
	if v := rec.Snapshot(); !v.Finished || sumSeries(v, "ops") != bare.Ops {
		t.Errorf("recorder timeline finished=%v ops=%d, want finished with %d ops", v.Finished, sumSeries(v, "ops"), bare.Ops)
	}
}

// sumSeries sums one series of a timeline over its retained epochs.
func sumSeries(v obs.TimelineView, name string) uint64 {
	var s uint64
	for _, sv := range v.Series {
		if sv.Name == name {
			for _, x := range sv.Values {
				s += x
			}
		}
	}
	return s
}

// TestTimingOnInterrupt checks that a stopped run still reports the
// phases it began, with the partial loop time in coherence_loop and no
// finalize, and that a Recorder teed beside the stop observer flushes a
// conserved partial timeline: its ops series sums to the final epoch's
// op count.
func TestTimingOnInterrupt(t *testing.T) {
	ob := logObserver{stop: stopAtFirst}
	rec := obs.NewRecorder()
	if r := runSmall(t, coherence.SNUCA, "BARNES", Options{Observer: tee{rec, &ob}}); r != nil {
		t.Fatal("stop observer did not abort the run")
	}
	checkPhases(t, ob.phases, "setup", "trace_decode", "coherence_loop")
	v := rec.Snapshot()
	final := ob.epochs[len(ob.epochs)-1]
	if !v.Finished || sumSeries(v, "ops") != final.Done || final.Done != DefaultProgressEvery {
		t.Fatalf("partial timeline finished=%v ops=%d, want finished with %d ops",
			v.Finished, sumSeries(v, "ops"), DefaultProgressEvery)
	}
}

// TestEpochAllocs pins the epoch path with a Recorder attached —
// telemetry fill, the observer call and the recorder's sample — at zero
// allocations once the recorder has started.
func TestEpochAllocs(t *testing.T) {
	cfg := config.Small()
	st := &runState{
		eng:       coherence.New(cfg, coherence.Options{Scheme: coherence.SNUCA}),
		ob:        obs.NewRecorder(),
		breakdown: make([]stats.TimeBreakdown, cfg.Cores),
		miss:      make([]stats.MissCounts, cfg.Cores),
		ep:        obs.RunEpoch{Series: telemetrySeries, Values: make([]uint64, len(telemetrySeries))},
	}
	st.epoch(false) // the first epoch starts the recorder, which allocates
	if n := testing.AllocsPerRun(200, func() {
		st.totalOps++
		st.epoch(false)
	}); n != 0 {
		t.Fatalf("epoch path allocates %.1f times per call, want 0", n)
	}
}

// TestTelemetrySeriesNames: every series name becomes a JSON key on
// GET /v1/runs/{id}/timeline and a CSV column header, so it must be a
// legal exposition label name.
func TestTelemetrySeriesNames(t *testing.T) {
	for _, s := range telemetrySeries {
		if !obs.ValidLabelName(s.Name) {
			t.Errorf("series name %q is not a legal label name ([a-zA-Z_][a-zA-Z0-9_]*)", s.Name)
		}
	}
}
