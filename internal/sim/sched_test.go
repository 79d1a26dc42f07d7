package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"lard/internal/mem"
)

// refSched is the brute-force model the tournament tree must match: one
// wake time per core and a full scan for the earliest (time, lowest core).
type refSched []mem.Cycles

// refIdle marks a core with no pending event in the model.
const refIdle = ^mem.Cycles(0)

func (r refSched) peek() (mem.Cycles, mem.CoreID) {
	best := -1
	for c, t := range r {
		if t != refIdle && (best < 0 || t < r[best]) {
			best = c
		}
	}
	return r[best], mem.CoreID(best)
}

func (r refSched) pop() (mem.Cycles, mem.CoreID) {
	t, c := r.peek()
	r[c] = refIdle
	return t, c
}

// TestSchedMatchesScan drives the tree and the scan through the same random
// sequences and requires every peek and pop to agree. Most steps are the
// event loop's per-access step, a peek and a retime of the peeked core;
// the rest pop a core and either push it back or park it at a barrier,
// and parked cores are released together at one time. Wake times are
// drawn from a narrow range so ties are common. The core counts include
// non-powers of two, whose idle padding leaves must never win.
func TestSchedMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 36, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(n), 13))
			s := newSched(n)
			ref := make(refSched, n)
			var parked []mem.CoreID
			for step := 0; step < 20000; step++ {
				if s.active == 0 {
					// Everyone parked: release the barrier at one time.
					release := mem.Cycles(rng.IntN(1000))
					for _, c := range parked {
						s.push(release, c)
						ref[c] = release
					}
					parked = parked[:0]
				}
				gt, gc := s.peek()
				wt, wc := ref.peek()
				if gt != wt || gc != wc {
					t.Fatalf("step %d: tree peeked (%d, core %d), scan (%d, core %d)", step, gt, gc, wt, wc)
				}
				if rng.IntN(2) == 0 {
					next := gt + mem.Cycles(rng.IntN(4))
					s.retime(gc, next)
					ref[gc] = next
					continue
				}
				gt, gc = s.pop()
				wt, wc = ref.pop()
				if gt != wt || gc != wc {
					t.Fatalf("step %d: tree popped (%d, core %d), scan (%d, core %d)", step, gt, gc, wt, wc)
				}
				switch k := rng.IntN(10); {
				case k == 0:
					parked = append(parked, gc)
				case k == 1 && len(parked) > 0:
					// Early release of the parked cores, at the popped time.
					for _, c := range parked {
						s.push(gt, c)
						ref[c] = gt
					}
					parked = parked[:0]
					fallthrough
				default:
					next := gt + mem.Cycles(rng.IntN(4))
					s.push(next, gc)
					ref[gc] = next
				}
				if want := n - len(parked); s.active != want {
					t.Fatalf("step %d: active = %d, want %d", step, s.active, want)
				}
			}
		})
	}
}

// TestSchedWakeRange pins the key's range: the last wake time below 2^58
// keeps its order, and 2^58, which would wrap into the core bits, panics
// rather than reorder the queue.
func TestSchedWakeRange(t *testing.T) {
	s := newSched(64)
	s.retime(0, maxWake-1)
	if gt, gc := s.peek(); gt != 0 || gc != 1 {
		t.Fatalf("peek = (%d, core %d), want (0, core 1)", gt, gc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("retime to 2^58 did not panic")
		}
	}()
	s.retime(63, 1<<58)
}

// BenchmarkSched times the scheduler's share of a simulated access: the
// event loop's peek plus one retime, and the pop plus push pair that a
// barrier or drained core costs.
func BenchmarkSched(b *testing.B) {
	for _, n := range []int{16, 64} {
		var lat [256]mem.Cycles
		rng := rand.New(rand.NewPCG(1, 2))
		for i := range lat {
			lat[i] = mem.Cycles(1 + rng.IntN(200))
		}
		b.Run(fmt.Sprintf("retime/cores=%d", n), func(b *testing.B) {
			s := newSched(n)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				t, c := s.peek()
				s.retime(c, t+lat[i&255])
			}
		})
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			s := newSched(n)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				t, c := s.pop()
				s.push(t+lat[i&255], c)
			}
		})
	}
}
