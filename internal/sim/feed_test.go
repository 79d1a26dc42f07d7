package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/obs"
	"lard/internal/trace"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// want. A joined helper has closed its exit channel before Run returns but
// may still be unwinding, so the count is polled briefly.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the run, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicObserver panics at its first epoch, inside the event loop.
type panicObserver struct{}

func (panicObserver) Phase(string, time.Time, time.Duration) {}
func (panicObserver) Epoch(*obs.RunEpoch) bool               { panic("observer failed") }

// TestFeedHelperJoined pins the helper's lifetime: no goroutine outlives
// Run, whether the run ends normally, is stopped by its observer, or
// panics in the loop.
func TestFeedHelperJoined(t *testing.T) {
	base := runtime.NumGoroutine()
	if r := runSmall(t, coherence.LocalityAware, "BARNES", Options{}); r == nil {
		t.Fatal("normal run returned nil")
	}
	waitGoroutines(t, "normal run", base)

	ob := logObserver{stop: stopAtFirst}
	if r := runSmall(t, coherence.LocalityAware, "BARNES", Options{Observer: &ob}); r != nil {
		t.Fatal("stopped run returned a result")
	}
	waitGoroutines(t, "stopped run", base)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the observer's panic did not reach the caller")
			}
		}()
		runSmall(t, coherence.LocalityAware, "BARNES", Options{Observer: panicObserver{}})
	}()
	waitGoroutines(t, "panicked run", base)
}

// TestFeedOneProc runs the helper and the loop on one P: the result must
// equal the same run at the default setting, field for field.
func TestFeedOneProc(t *testing.T) {
	for _, bench := range []string{"BARNES", "LU-NC"} {
		opt := Options{TrackRuns: true}
		want := runSmall(t, coherence.LocalityAware, bench, opt)
		prev := runtime.GOMAXPROCS(1)
		got := runSmall(t, coherence.LocalityAware, bench, opt)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: GOMAXPROCS=1 result\n%+v\nwant\n%+v", bench, got, want)
		}
	}
}

// TestFeedShortStreams runs streams shorter than one chunk: each core's
// first chunk is partial and its second is the empty one that ends it.
func TestFeedShortStreams(t *testing.T) {
	p, err := trace.ProfileByName("BARNES")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Small()
	for _, perCore := range []int{1, 7, opChunk - 1} {
		scale := float64(perCore) / float64(p.Ops)
		r := Run(cfg, p, Options{Scheme: coherence.LocalityAware, OpsScale: scale})
		if want := uint64(perCore * cfg.Cores); r.Ops != want {
			t.Errorf("%d ops per core: ran %d ops, want %d", perCore, r.Ops, want)
		}
	}
}

// TestFeederMatchesFill consumes streams through the feeder, helper
// running, and checks every chunk against the same streams filled
// directly: whoever fills a chunk, the loop sees each stream in order.
// Under -race it also checks the hand-over of each slot.
func TestFeederMatchesFill(t *testing.T) {
	p, err := trace.ProfileByName("DEDUP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Small()
	fed := trace.Generate(p, cfg, 0.2, 7).Streams
	direct := trace.Generate(p, cfg, 0.2, 7).Streams
	f := newFeeder(fed)
	go f.run()
	defer f.stop()

	next := make([]uint64, len(fed))
	ended := make([]bool, len(fed))
	want := make([]trace.Op, opChunk)
	for left := len(fed); left > 0; {
		// Uneven strides make the loop outrun the helper on some cores.
		for c := range fed {
			for i := 0; i <= c%3 && !ended[c]; i++ {
				lo, hi := f.take(c, next[c])
				n := direct[c].Fill(want)
				if !reflect.DeepEqual(f.ring[lo:hi], want[:n]) {
					t.Fatalf("core %d chunk %d differs from a direct fill", c, next[c])
				}
				next[c]++
				if n == 0 {
					ended[c] = true
					left--
				}
			}
		}
	}
}
