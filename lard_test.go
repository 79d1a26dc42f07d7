package lard_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"lard"
	"lard/internal/obs"
	"lard/internal/resultstore"
)

func run(t *testing.T, bench string, s lard.Scheme, o lard.Options) *lard.Result {
	t.Helper()
	if o.Cores == 0 {
		o.Cores = 16
	}
	if o.OpsScale == 0 {
		o.OpsScale = 0.05
	}
	res, err := lard.Run(bench, s, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBenchmarksList(t *testing.T) {
	bs := lard.Benchmarks()
	if len(bs) != 21 {
		t.Fatalf("%d benchmarks, want 21", len(bs))
	}
}

func TestSchemeConstructors(t *testing.T) {
	cases := []struct {
		s    lard.Scheme
		want string
	}{
		{lard.SNUCA(), "S-NUCA"},
		{lard.RNUCA(), "R-NUCA"},
		{lard.VictimReplication(), "VR"},
		{lard.ASR(0.5), "ASR"},
		{lard.LocalityAware(3), "RT-3"},
		{lard.LocalityAware(8), "RT-8"},
	}
	for _, c := range cases {
		if got := c.s.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := lard.Run("NOPE", lard.SNUCA(), lard.Options{}); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := lard.Run("BARNES", lard.Scheme{Kind: "BOGUS"}, lard.Options{}); err == nil {
		t.Error("unknown scheme must error")
	}
	if _, err := lard.Run("BARNES", lard.SNUCA(), lard.Options{Cores: 7}); err == nil {
		t.Error("unsupported core count must error")
	}
	if _, err := lard.Run("BARNES", lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 99, ClusterSize: 1}, lard.Options{Cores: 16}); err == nil {
		t.Error("invalid classifier k must error")
	}
}

// TestOpsScaleValidation is a regression test: a negative ops_scale and
// one whose per-core op count overflows an int both used to simulate one
// op per core, each under a key of its own. They must error on every
// store-addressed path, while 0 keeps meaning the default.
func TestOpsScaleValidation(t *testing.T) {
	s := lard.LocalityAware(3)
	for _, tc := range []struct {
		name  string
		scale float64
		ok    bool
	}{
		{"negative", -1, false},
		{"tiny negative", -1e-12, false},
		{"NaN", math.NaN(), false},
		{"overflow", 1e300, false},
		{"infinite", math.Inf(1), false},
		{"past MaxInt", math.MaxInt / 1000, false},
		{"default", 0, true},
		{"scaled down", 0.02, true},
		{"below one op", 1e-9, true},
	} {
		o := lard.Options{Cores: 16, OpsScale: tc.scale}
		_, err := lard.KeyFor("BARNES", s, o)
		if (err == nil) != tc.ok {
			t.Errorf("%s: KeyFor err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if !tc.ok {
			if _, err := lard.Run("BARNES", s, o); err == nil {
				t.Errorf("%s: Run must error", tc.name)
			}
		}
	}
	def, err := lard.KeyFor("BARNES", s, lard.Options{Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if one, _ := lard.KeyFor("BARNES", s, lard.Options{Cores: 16, OpsScale: 1}); one != def {
		t.Errorf("ops_scale 0 key %s, 1.0 key %s: 0 must mean the default", def, one)
	}
}

// TestRTZeroRejected is a regression test: LocalityAware(0) used to
// silently simulate the config-default threshold (RT=3) while labeling the
// run "RT-0". It must be an error, on every store-addressed path.
func TestRTZeroRejected(t *testing.T) {
	for _, s := range []lard.Scheme{
		lard.LocalityAware(0),
		{Kind: "RT", ClassifierK: 3, ClusterSize: 1},
		{Kind: "RT", RT: -2, ClassifierK: 3, ClusterSize: 1},
	} {
		if _, err := lard.Run("BARNES", s, lard.Options{Cores: 16, OpsScale: 0.02}); err == nil {
			t.Errorf("Run with %+v must error", s)
		}
		if _, err := lard.KeyFor("BARNES", s, lard.Options{Cores: 16}); err == nil {
			t.Errorf("KeyFor with %+v must error", s)
		}
	}
	// The threshold actually takes effect: RT-1 and RT-3 are different runs.
	a := run(t, "BARNES", lard.LocalityAware(1), lard.Options{})
	b := run(t, "BARNES", lard.LocalityAware(3), lard.Options{})
	if a.Scheme != "RT-1" || b.Scheme != "RT-3" {
		t.Fatalf("labels %q/%q", a.Scheme, b.Scheme)
	}
}

func TestResultShape(t *testing.T) {
	res := run(t, "BARNES", lard.LocalityAware(3), lard.Options{CheckInvariants: true})
	if res.Benchmark != "BARNES" || res.Scheme != "RT-3" {
		t.Fatalf("labels %q/%q", res.Benchmark, res.Scheme)
	}
	if res.CompletionCycles == 0 || res.Ops == 0 {
		t.Fatal("empty result")
	}
	if len(res.EnergyPJ) != 7 {
		t.Fatalf("energy components = %d, want 7", len(res.EnergyPJ))
	}
	if len(res.TimeBreakdown) != 7 {
		t.Fatalf("time components = %d, want 7", len(res.TimeBreakdown))
	}
	if len(res.Misses) != 4 {
		t.Fatalf("miss types = %d, want 4", len(res.Misses))
	}
	if res.EnergyTotalPJ() <= 0 {
		t.Fatal("energy must be positive")
	}
	if res.TotalTime() == 0 || res.TotalTime() > res.CompletionCycles {
		t.Fatalf("TotalTime %d vs completion %d", res.TotalTime(), res.CompletionCycles)
	}
}

func TestRunLengthShares(t *testing.T) {
	res := run(t, "BARNES", lard.SNUCA(), lard.Options{TrackRuns: true, OpsScale: 0.1})
	if res.RunLengthShares == nil {
		t.Fatal("TrackRuns must export shares")
	}
	var sum float64
	for _, v := range res.RunLengthShares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestDeterministicFacade(t *testing.T) {
	a := run(t, "FERRET", lard.LocalityAware(3), lard.Options{Seed: 11})
	b := run(t, "FERRET", lard.LocalityAware(3), lard.Options{Seed: 11})
	if a.CompletionCycles != b.CompletionCycles || a.EnergyTotalPJ() != b.EnergyTotalPJ() {
		t.Fatal("facade runs must be deterministic")
	}
}

func TestPlainLRUAndOracleKnobs(t *testing.T) {
	s := lard.LocalityAware(3)
	s.PlainLRU = true
	r1 := run(t, "DEDUP", s, lard.Options{})
	s2 := lard.LocalityAware(3)
	s2.LookupOracle = true
	r2 := run(t, "DEDUP", s2, lard.Options{})
	if r1.CompletionCycles == 0 || r2.CompletionCycles == 0 {
		t.Fatal("knob runs failed")
	}
}

// TestBarnesOrdering is the paper's flagship qualitative result on a small
// machine: for BARNES, the locality-aware protocol beats S-NUCA in both
// time and energy, and beats VR in energy (§4.1).
func TestBarnesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("needs steady-state trace length (OpsScale 0.5)")
	}
	o := lard.Options{Cores: 16, OpsScale: 0.5}
	snuca := run(t, "BARNES", lard.SNUCA(), o)
	vr := run(t, "BARNES", lard.VictimReplication(), o)
	rt3 := run(t, "BARNES", lard.LocalityAware(3), o)
	if rt3.CompletionCycles >= snuca.CompletionCycles {
		t.Errorf("RT-3 (%d) must beat S-NUCA (%d) on BARNES",
			rt3.CompletionCycles, snuca.CompletionCycles)
	}
	if rt3.EnergyTotalPJ() >= snuca.EnergyTotalPJ() {
		t.Error("RT-3 must use less energy than S-NUCA on BARNES")
	}
	if rt3.EnergyTotalPJ() >= vr.EnergyTotalPJ() {
		t.Error("RT-3 must use less energy than VR on BARNES (§4.1)")
	}
	if rt3.Misses["LLC-Replica-Hit"] == 0 {
		t.Error("RT-3 must service BARNES misses from replicas")
	}
}

// watch is a test observer: it sums phase times per name, counts epochs
// and keeps the latest one. stop, when set, decides each epoch's return.
type watch struct {
	phases map[string]time.Duration
	epochs int
	last   obs.RunEpoch
	stop   func(*obs.RunEpoch) bool
}

func (w *watch) Phase(name string, _ time.Time, d time.Duration) {
	if w.phases == nil {
		w.phases = make(map[string]time.Duration)
	}
	w.phases[name] += d
}

func (w *watch) Epoch(e *obs.RunEpoch) bool {
	w.epochs++
	w.last = *e
	return w.stop != nil && w.stop(e)
}

// TestRunWithProgress pins the facade progress contract: interior epochs
// arrive, the final one is done == total, and the observed run's result
// matches an unobserved one.
func TestRunWithProgress(t *testing.T) {
	o := lard.Options{Cores: 16, OpsScale: 0.02}
	var w watch
	o.Observer = &w
	res, err := lard.Run("BARNES", lard.SNUCA(), o)
	if err != nil {
		t.Fatal(err)
	}
	if w.epochs < 2 || !w.last.Final || w.last.Done != w.last.Total || w.last.Total != res.Ops {
		t.Fatalf("epochs=%d last=%+v ops=%d", w.epochs, w.last, res.Ops)
	}
	o.Observer = nil
	bare, err := lard.Run("BARNES", lard.SNUCA(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, res) {
		t.Fatal("progress observer changed the result")
	}
}

// TestRunWithStoreProgressCancel pins engine-facing cancellation: a
// context cancelled mid-simulation aborts the run with the context error,
// stores nothing, and leaves the run computable afresh.
func TestRunWithStoreProgressCancel(t *testing.T) {
	st, err := resultstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	o := lard.Options{Cores: 16, OpsScale: 0.05}
	ctx, cancel := context.WithCancel(context.Background())
	o.Observer = &watch{stop: func(e *obs.RunEpoch) bool {
		if e.Done < e.Total {
			cancel()
		}
		return false
	}}
	_, _, err = lard.RunWithStoreProgress(ctx, st, "BARNES", lard.SNUCA(), o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := st.Stats().Computes; n != 1 {
		t.Fatalf("computes = %d", n)
	}
	if _, hit, _ := lard.LookupStored(st, "BARNES", lard.SNUCA(), o); hit {
		t.Fatal("cancelled run must not be stored")
	}

	// The same run completes normally afterwards, with epochs flowing.
	w := &watch{}
	o.Observer = w
	res, cached, err := lard.RunWithStoreProgress(context.Background(), st, "BARNES", lard.SNUCA(), o)
	if err != nil || cached || res == nil || w.last.Done != w.last.Total {
		t.Fatalf("rerun = (%v, cached=%v, last=%+v)", err, cached, w.last)
	}
}

// TestRunStoppedByObserver pins the facade's stop contract: an observer
// that stops the run makes Run return context.Canceled, not a result.
func TestRunStoppedByObserver(t *testing.T) {
	o := lard.Options{Cores: 16, OpsScale: 0.02, Observer: &watch{stop: func(*obs.RunEpoch) bool { return true }}}
	if res, err := lard.Run("BARNES", lard.SNUCA(), o); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run = (%v, %v), want context.Canceled", res, err)
	}
}
