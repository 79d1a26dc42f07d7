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

func (r refSched) pop() (mem.Cycles, mem.CoreID) {
	best := -1
	for c, t := range r {
		if t != schedIdle && (best < 0 || t < r[best]) {
			best = c
		}
	}
	t := r[best]
	r[best] = schedIdle
	return t, mem.CoreID(best)
}

// TestSchedMatchesScan drives the tree and the scan through the same random
// pop/push sequences — single re-pushes, cores parked at a barrier and
// released together at one time, and wake times drawn from a narrow range
// so ties are common — and requires every pop to agree. The core counts
// include non-powers of two, whose idle padding leaves must never win.
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
				gt, gc := s.pop()
				wt, wc := ref.pop()
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

// BenchmarkSched times one pop plus the push that reschedules the popped
// core, the scheduler's share of every simulated access.
func BenchmarkSched(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			var lat [256]mem.Cycles
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range lat {
				lat[i] = mem.Cycles(1 + rng.IntN(200))
			}
			s := newSched(n)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				t, c := s.pop()
				s.push(t+lat[i&255], c)
			}
		})
	}
}
