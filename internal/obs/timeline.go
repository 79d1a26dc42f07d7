package obs

import (
	"encoding/csv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the epoch-resolved telemetry layer: RunObserver is the
// one hook through the simulator's run loop, a Recorder is a
// fixed-capacity flight recorder fed by its epoch calls, and Timelines
// is the bounded per-run registry the engine and server share (the
// timeline sibling of trace.go's Tracer).
//
// The core constraint is PR 8's: the simulator hot path stays
// allocation-free. The Recorder preallocates one flat []uint64 sample
// matrix at Start and never allocates in Sample; when a run outlives the
// capacity, the retained epochs are folded 2:1 in place (decimation), so
// memory stays bounded no matter how long the run is. Counter series
// fold by addition — the sum over retained epochs always equals the
// final cumulative total — and gauge series keep the later value.

// SeriesKind says how a series' per-epoch values combine.
type SeriesKind uint8

const (
	// Counter series carry per-epoch deltas of a cumulative quantity;
	// decimation folds adjacent epochs by addition, so totals conserve.
	Counter SeriesKind = iota
	// Gauge series carry an instantaneous level; decimation keeps the
	// later epoch's value.
	Gauge
)

// String renders the kind for JSON/CSV views.
func (k SeriesKind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// SeriesDef declares one series a Recorder tracks. Name must be a legal
// exposition label name (ValidLabelName): it becomes a JSON key on
// GET /v1/runs/{id}/timeline and a CSV column header. The simulator's
// table is checked by a test (TestTelemetrySeriesNames in internal/sim).
type SeriesDef struct {
	Name string
	Kind SeriesKind
}

// timelineEpochs is a Recorder's epoch capacity. At the simulator's
// default cadence (one sample per 4096 ops) 128 epochs cover half a
// million operations before the first decimation.
const timelineEpochs = 128

// RunObserver watches one simulation (sim.Run). It is execution
// plumbing, not run identity: wiring one never changes a run's content
// address or its simulated outcome. The simulator makes two calls, both
// on its own goroutine, so implementations must be fast:
//
//   - Phase at each phase boundary (setup, trace_decode, coherence_loop,
//     finalize) with the phase's wall-clock start and duration. A
//     stopped run reports the phases it began, coherence_loop holding
//     the partial loop time.
//   - Epoch every few thousand executed operations, and once more with
//     Final set on every exit path. Returning true stops the run, which
//     then returns no result. The argument is reused between calls.
type RunObserver interface {
	Phase(name string, start time.Time, d time.Duration)
	Epoch(e *RunEpoch) (stop bool)
}

// RunEpoch is one Epoch observation of a running simulation.
type RunEpoch struct {
	// Done is the number of operations retired so far, Total the run's
	// full operation count.
	Done, Total uint64
	// Series declares Values: the current cumulative counter values and
	// gauge levels, one per series.
	Series []SeriesDef
	Values []uint64
	// Final marks the run's last call, completed or stopped.
	Final bool
}

// Recorder is a fixed-capacity epoch ring for one run. As a RunObserver
// it starts on a run's first epoch (per-run setup may allocate), samples
// every epoch (never allocates) and flushes on the final one; Start,
// Sample and Flush are those three steps. All methods are nil-receiver
// safe, so a nil *Recorder is the disabled recorder, the same contract
// as the nil *Tracer.
type Recorder struct {
	mu   sync.Mutex
	defs []SeriesDef

	data  []uint64 // epoch-major flat matrix: data[e*len(defs)+s]
	spans []uint64 // raw samples folded into each retained epoch
	n     int      // retained epochs
	scale uint64   // raw samples per full epoch (doubles on decimation)

	pend    []uint64 // accumulating (not yet committed) epoch
	pendN   uint64   // raw samples folded into pend
	last    []uint64 // previous cumulative values, for counter deltas
	samples uint64   // total raw samples ever taken
	commits int      // total epochs ever committed (pre-decimation count)

	finished bool
}

// NewRecorder builds a recorder retaining at most timelineEpochs
// epochs. Call Start before Sample.
func NewRecorder() *Recorder { return &Recorder{} }

// Start declares the series and preallocates every buffer Sample will
// touch. Restarting (a retried run) resets all state.
func (r *Recorder) Start(defs []SeriesDef) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.defs = append([]SeriesDef(nil), defs...)
	r.data = make([]uint64, timelineEpochs*len(defs))
	r.spans = make([]uint64, timelineEpochs)
	r.pend = make([]uint64, len(defs))
	r.last = make([]uint64, len(defs))
	r.n, r.scale, r.pendN, r.samples, r.commits = 0, 1, 0, 0, 0
	r.finished = false
	r.mu.Unlock()
}

// Sample takes one raw sample: cum[i] is the current cumulative value of
// counter series i, or the current level of gauge series i, in Start's
// declaration order. Sample never allocates.
func (r *Recorder) Sample(cum []uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pend == nil || len(cum) != len(r.defs) || r.finished {
		return
	}
	r.samples++
	r.pendN++
	for i, d := range r.defs {
		if d.Kind == Gauge {
			r.pend[i] = cum[i]
			continue
		}
		r.pend[i] += cum[i] - r.last[i]
		r.last[i] = cum[i]
	}
	if r.pendN >= r.scale {
		r.commitLocked()
	}
}

// commitLocked moves pend into the matrix, decimating first when full.
func (r *Recorder) commitLocked() {
	if r.n == timelineEpochs {
		r.decimateLocked()
	}
	row := r.data[r.n*len(r.defs) : (r.n+1)*len(r.defs)]
	copy(row, r.pend)
	r.spans[r.n] = r.pendN
	r.n++
	r.commits++
	for i := range r.pend {
		r.pend[i] = 0
	}
	r.pendN = 0
}

// decimateLocked folds adjacent epoch pairs in place: counters add,
// gauges keep the later value, spans add. An odd tail epoch carries
// down unchanged. Afterwards each full epoch covers twice the samples.
func (r *Recorder) decimateLocked() {
	w := len(r.defs)
	half := r.n / 2
	for e := 0; e < half; e++ {
		a := r.data[(2*e)*w : (2*e+1)*w]
		b := r.data[(2*e+1)*w : (2*e+2)*w]
		dst := r.data[e*w : (e+1)*w]
		for i, d := range r.defs {
			if d.Kind == Gauge {
				dst[i] = b[i]
			} else {
				dst[i] = a[i] + b[i]
			}
		}
		r.spans[e] = r.spans[2*e] + r.spans[2*e+1]
	}
	if r.n%2 == 1 {
		copy(r.data[half*w:(half+1)*w], r.data[(r.n-1)*w:r.n*w])
		r.spans[half] = r.spans[r.n-1]
		r.n = half + 1
	} else {
		r.n = half
	}
	r.scale *= 2
}

// Phase ignores phase boundaries: a Recorder keeps epoch series only.
func (r *Recorder) Phase(string, time.Time, time.Duration) {}

// Epoch samples e, starting the timeline on a run's first epoch (or
// restarting a finished one, as a retried run does) and flushing it on
// the final one. It never stops the run.
func (r *Recorder) Epoch(e *RunEpoch) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	fresh := r.pend == nil || r.finished
	r.mu.Unlock()
	if fresh {
		r.Start(e.Series)
	}
	r.Sample(e.Values)
	if e.Final {
		r.Flush()
	}
	return false
}

// Flush commits any partial pending epoch and marks the timeline
// finished. After Flush the sum of every counter series over the
// retained epochs equals its final cumulative value.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pend == nil || r.finished {
		return
	}
	if r.pendN > 0 {
		r.commitLocked()
	}
	r.finished = true
}

// Finished reports whether Flush has run.
func (r *Recorder) Finished() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

// Epochs returns the number of retained epochs.
func (r *Recorder) Epochs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Samples returns the total raw samples taken.
func (r *Recorder) Samples() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// SeriesView is one series of a timeline, value per retained epoch.
type SeriesView struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Values []uint64 `json:"values"`
}

// TimelineView is the JSON shape of GET /v1/runs/{id}/timeline.
type TimelineView struct {
	Epochs   int `json:"epochs"`
	Capacity int `json:"capacity"`
	// Scale is the raw-sample width of a full epoch (1 until the first
	// decimation, then a power of two).
	Scale   uint64 `json:"scale"`
	Samples uint64 `json:"samples"`
	// Commits counts epochs ever committed; > Epochs once decimation has
	// folded the retained window.
	Commits  int          `json:"commits"`
	Finished bool         `json:"finished"`
	Spans    []uint64     `json:"spans"`
	Series   []SeriesView `json:"series"`
}

// Snapshot deep-copies the timeline for serving; safe to call while the
// run is still sampling.
func (r *Recorder) Snapshot() TimelineView {
	if r == nil {
		return TimelineView{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := TimelineView{
		Epochs:   r.n,
		Capacity: timelineEpochs,
		Scale:    r.scale,
		Samples:  r.samples,
		Commits:  r.commits,
		Finished: r.finished,
		Spans:    append([]uint64(nil), r.spans[:r.n]...),
	}
	w := len(r.defs)
	for i, d := range r.defs {
		vals := make([]uint64, r.n)
		for e := 0; e < r.n; e++ {
			vals[e] = r.data[e*w+i]
		}
		v.Series = append(v.Series, SeriesView{Name: d.Name, Kind: d.Kind.String(), Values: vals})
	}
	return v
}

// WriteCSV renders the timeline as CSV — one row per epoch, one column
// per series, after epoch and span columns — the single renderer behind
// both the server's ?format=csv and cmd/lard's -timeline-out. Series
// names are escaped by encoding/csv, so a hostile name cannot smuggle
// extra columns.
func (v TimelineView) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(v.Series)+2)
	header = append(header, "epoch", "span")
	for _, s := range v.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for e := 0; e < v.Epochs; e++ {
		row[0] = strconv.Itoa(e)
		var span uint64
		if e < len(v.Spans) {
			span = v.Spans[e]
		}
		row[1] = strconv.FormatUint(span, 10)
		for i, s := range v.Series {
			var val uint64
			if e < len(s.Values) {
				val = s.Values[e]
			}
			row[i+2] = strconv.FormatUint(val, 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// maxTimelines bounds the timeline registry. A timeline is heavier than
// a trace (a 128-epoch × 18-series matrix, about 20.4 KB against a span
// tree's 1.4 KB), so the bound is smaller than maxTraces: a full
// registry stays near 5 MB.
const maxTimelines = 256

// Timelines is the bounded per-run recorder registry, the timeline
// sibling of the Tracer and held in the same kind of registry. A nil
// *Timelines is the disabled registry; every method is nil-receiver safe.
type Timelines struct {
	recs     *registry[*Recorder]
	attached atomic.Uint64 // cumulative Attach count, for lard_timeline_runs_total
}

// NewTimelines builds an enabled registry holding at most maxTimelines
// timelines.
func NewTimelines() *Timelines {
	return &Timelines{recs: newRegistry(maxTimelines, (*Recorder).Finished)}
}

// Attach creates (or restarts) the recorder for the given run id and
// returns it. Restarting — a retried job — replaces the old timeline
// but keeps the registry slot's age, the same policy as StartTrace.
func (t *Timelines) Attach(id string) *Recorder {
	if t == nil {
		return nil
	}
	rec := NewRecorder()
	t.attached.Add(1)
	t.recs.put(id, rec)
	return rec
}

// Len returns the number of timelines currently held.
func (t *Timelines) Len() int {
	if t == nil {
		return 0
	}
	return t.recs.len()
}

// View returns the timeline for the given run id as a serializable
// snapshot, or ok=false when unknown (or the registry is disabled).
func (t *Timelines) View(id string) (TimelineView, bool) {
	if t == nil {
		return TimelineView{}, false
	}
	rec, ok := t.recs.get(id)
	if !ok {
		return TimelineView{}, false
	}
	return rec.Snapshot(), true
}

// TimelineStats summarizes the registry for /metrics.
type TimelineStats struct {
	// Attached counts Attach calls ever (a counter).
	Attached uint64
	// Retained is the number of timelines currently held (a gauge).
	Retained int
	// Epochs sums retained epochs across held timelines (a gauge).
	Epochs int
	// Samples sums raw samples across held timelines (a gauge).
	Samples uint64
}

// Stats snapshots the registry counters.
func (t *Timelines) Stats() TimelineStats {
	if t == nil {
		return TimelineStats{}
	}
	recs := t.recs.values()
	st := TimelineStats{Attached: t.attached.Load(), Retained: len(recs)}
	for _, r := range recs {
		st.Epochs += r.Epochs()
		st.Samples += r.Samples()
	}
	return st
}
