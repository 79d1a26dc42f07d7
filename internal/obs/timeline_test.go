package obs

import (
	"strings"
	"testing"
)

// twoSeries is the minimal def set covering both fold semantics.
var twoSeries = []SeriesDef{
	{Name: "ops", Kind: Counter},
	{Name: "level", Kind: Gauge},
}

// TestRecorderDecimationConservation is the recorder's core property: for
// ANY number of samples, the retained timeline holds at most
// timelineEpochs epochs, the spans account for every raw sample, counter
// sums are conserved exactly (decimation folds by addition), and a gauge
// reports the epoch's latest level. The sample counts straddle the first
// few ring fills (128, 256, 512 samples) and run far past them.
func TestRecorderDecimationConservation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 127, 128, 129, 255, 256, 257, 258, 511, 512, 513, 1000, 4097, 65537} {
		rec := NewRecorder()
		rec.Start(twoSeries)
		var cum, lastGauge uint64
		for i := 1; i <= n; i++ {
			cum += uint64(i%17 + 1) // deterministic, nonuniform increments
			lastGauge = uint64(i % 23)
			rec.Sample([]uint64{cum, lastGauge})
		}
		rec.Flush()
		v := rec.Snapshot()

		if !v.Finished {
			t.Fatalf("n=%d: not finished after Flush", n)
		}
		if v.Epochs < 1 || v.Epochs > timelineEpochs || v.Capacity != timelineEpochs {
			t.Fatalf("n=%d: epochs = %d of capacity %d, want 1..%d", n, v.Epochs, v.Capacity, timelineEpochs)
		}
		if v.Samples != uint64(n) {
			t.Fatalf("n=%d: samples = %d", n, v.Samples)
		}
		var spanSum uint64
		for _, s := range v.Spans {
			spanSum += s
		}
		if spanSum != uint64(n) {
			t.Fatalf("n=%d: spans sum to %d, want %d (no sample may vanish)", n, spanSum, n)
		}
		ops := seriesByName(t, v, "ops")
		var opsSum uint64
		for _, x := range ops.Values {
			opsSum += x
		}
		if opsSum != cum {
			t.Fatalf("n=%d: counter sum = %d, want %d (decimation must conserve)", n, opsSum, cum)
		}
		level := seriesByName(t, v, "level")
		if got := level.Values[len(level.Values)-1]; got != lastGauge {
			t.Fatalf("n=%d: final gauge = %d, want %d", n, got, lastGauge)
		}
	}
}

// TestRecorderScaleDoubles pins the decimation arithmetic itself: filling
// the recorder far past its ring doubles the epoch width each time the
// ring fills (scale stays a power of two), and no span ever exceeds the
// final scale. 512 samples fill the 128-epoch ring twice.
func TestRecorderScaleDoubles(t *testing.T) {
	rec := NewRecorder()
	rec.Start(twoSeries)
	for i := 1; i <= 4*timelineEpochs; i++ {
		rec.Sample([]uint64{uint64(i), 0})
	}
	rec.Flush()
	v := rec.Snapshot()
	if v.Epochs > timelineEpochs {
		t.Fatalf("epochs = %d, want <= capacity %d", v.Epochs, timelineEpochs)
	}
	if v.Scale < 4 || v.Scale&(v.Scale-1) != 0 {
		t.Fatalf("scale = %d, want a power of two >= 4 after two ring fills", v.Scale)
	}
	for i, s := range v.Spans {
		if s == 0 || s > v.Scale {
			t.Fatalf("span[%d] = %d, want 1..scale %d", i, s, v.Scale)
		}
	}
}

// TestRecorderGuards pins the defensive edges: sampling before Start,
// after Flush, or with a mis-sized row is a no-op, and a nil recorder is
// inert everywhere (the telemetry-off path).
func TestRecorderGuards(t *testing.T) {
	rec := NewRecorder()
	rec.Sample([]uint64{1, 2}) // before Start: dropped
	rec.Start(twoSeries)
	rec.Sample([]uint64{1}) // wrong width: dropped
	rec.Sample([]uint64{5, 1})
	rec.Flush()
	rec.Sample([]uint64{9, 9}) // after Flush: dropped
	if v := rec.Snapshot(); v.Samples != 1 || v.Epochs != 1 {
		t.Fatalf("guarded recorder = %+v", v)
	}

	var nilRec *Recorder
	nilRec.Sample([]uint64{1})
	nilRec.Flush()
	if nilRec.Epochs() != 0 || nilRec.Samples() != 0 || nilRec.Finished() {
		t.Fatal("nil recorder must be inert")
	}
}

// TestTimelineCSVEscaping pins the CSV writer's quoting: series names (and
// any future string cell) containing commas, quotes or newlines must
// round-trip through encoding/csv instead of corrupting columns. Source
// literals are linted to never look like this; the writer still must not
// rely on that.
func TestTimelineCSVEscaping(t *testing.T) {
	rec := NewRecorder()
	rec.Start([]SeriesDef{
		{Name: `evil,"name`, Kind: Counter},
		{Name: "plain", Kind: Counter},
	})
	rec.Sample([]uint64{3, 4})
	rec.Flush()
	var b strings.Builder
	if err := rec.Snapshot().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv = %d lines, want header + 1 epoch:\n%s", len(lines), out)
	}
	if want := `epoch,span,"evil,""name",plain`; lines[0] != want {
		t.Fatalf("header = %q, want %q", lines[0], want)
	}
	if lines[1] != "0,1,3,4" {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestTimelinesRegistry pins the timeline registry: an Attach for a known
// id restarts in place with a fresh recorder, Stats counts every Attach,
// and a nil registry (tracing off) is safe everywhere. Eviction belongs
// to the shared registry type (TestRegistryEviction).
func TestTimelinesRegistry(t *testing.T) {
	reg := NewTimelines()
	a := reg.Attach("a")
	a.Start(twoSeries)
	a.Sample([]uint64{1, 0})
	a.Flush()
	b := reg.Attach("b")
	b.Start(twoSeries)
	b.Sample([]uint64{2, 0})
	if v, ok := reg.View("a"); !ok || !v.Finished || v.Samples != 1 {
		t.Fatalf("a = %+v, %v; want a finished one-sample timeline", v, ok)
	}

	// Restart keeps the slot: same id, fresh recorder, no growth.
	reg.Attach("b")
	if reg.Len() != 2 {
		t.Fatalf("restart grew the registry to %d", reg.Len())
	}
	if v, ok := reg.View("b"); !ok || v.Samples != 0 {
		t.Fatalf("restarted b = %+v, want a fresh recorder", v)
	}

	st := reg.Stats()
	if st.Attached != 3 || st.Retained != 2 || st.Epochs != 1 || st.Samples != 1 {
		t.Fatalf("stats = %+v, want 3 attached / 2 retained / 1 epoch / 1 sample", st)
	}

	var nilReg *Timelines
	if rec := nilReg.Attach("x"); rec != nil {
		t.Fatal("nil registry must hand out nil recorders")
	}
	if _, ok := nilReg.View("x"); ok || nilReg.Len() != 0 {
		t.Fatal("nil registry must be empty")
	}
	if st := nilReg.Stats(); st != (TimelineStats{}) {
		t.Fatalf("nil registry stats = %+v", st)
	}
}

// seriesByName fails the test when the series is absent.
func seriesByName(t *testing.T, v TimelineView, name string) SeriesView {
	t.Helper()
	for _, s := range v.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing from %+v", name, v.Series)
	return SeriesView{}
}
