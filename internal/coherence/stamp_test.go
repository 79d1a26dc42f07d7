package coherence

import (
	"math/rand"
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
)

// runInOrder drives e in global (time, lowest core) order, advancing the
// engine to every event time the way sim.Run does. Each core issues ops
// accesses from next, ahead of it by gap cycles.
func runInOrder(e *Engine, ops int, next func(c mem.CoreID) (op Op, gap mem.Cycles)) {
	const idle = ^mem.Cycles(0)
	wake := make([]mem.Cycles, e.Config().Cores)
	left := make([]int, len(wake))
	for c := range left {
		left[c] = ops
	}
	for live := len(wake); live > 0; {
		c := 0
		for i, tm := range wake {
			if tm < wake[c] {
				c = i
			}
		}
		now := wake[c]
		e.Advance(now)
		if left[c] == 0 {
			wake[c] = idle
			live--
			continue
		}
		left[c]--
		op, gap := next(mem.CoreID(c))
		wake[c] = e.Access(mem.CoreID(c), now+gap, op).Done
	}
}

// TestStampSpillMatchesOracle reaches the spill path: 64 cores contend for
// a handful of lines homed at one slice whose LLC set has two ways, so home
// lines are evicted while requests queue on them and refilled soon after.
// Their stamps must outlive the directory entry. With invariants on, atHome
// checks every transaction begin against the full per-slice stamp map and
// panics on a difference, and Access panics on a request issued before the
// watermark.
func TestStampSpillMatchesOracle(t *testing.T) {
	for _, sc := range []struct {
		name string
		opts Options
	}{
		{"S-NUCA", Options{Scheme: SNUCA}},
		{"R-NUCA", Options{Scheme: RNUCA}},
		{"RT-3", Options{Scheme: LocalityAware}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default64()
			cfg.LLCSliceLines, cfg.LLCWays = 2, 2
			opts := sc.opts
			opts.CheckInvariants = true
			e := New(cfg, opts)
			rng := rand.New(rand.NewSource(7))
			runInOrder(e, 300, func(c mem.CoreID) (Op, mem.Cycles) {
				// Lines k*64 are all homed at slice 0 under interleaving.
				op := Op{Type: mem.Load, Line: mem.LineAddr(64 * (1 + rng.Intn(6))), Class: mem.ClassSharedRW}
				if rng.Intn(3) == 0 {
					op.Type = mem.Store
				}
				return op, mem.Cycles(rng.Intn(4))
			})
			if e.spilled == 0 {
				t.Fatal("no home stamp was spilled: the test no longer reaches the spill path")
			}
			t.Logf("%d stamps spilled", e.spilled)
		})
	}
}

// TestAccessBeforeWatermarkPanics: under invariants a request issued
// before the last Advance is a driver bug, reported at once.
func TestAccessBeforeWatermarkPanics(t *testing.T) {
	e := New(config.Small(), Options{Scheme: SNUCA, CheckInvariants: true})
	e.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Access before the watermark did not panic")
		}
	}()
	rd(e, 0, 99, 0x1000)
}
