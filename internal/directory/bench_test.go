package directory

import (
	"fmt"
	"math/bits"
	"testing"

	"lard/internal/mem"
)

// BenchmarkDirectory times the sharer operations of one home access on an
// entry held by value, as the LLC way holds it: add, count and remove of a
// sharer under ACKwise-4, and the invalidation fan-out walk over the
// sharer bitset, each sharer probed and kept. With 4 sharers the set stays precise; with 64 it is in
// broadcast mode and the walk visits every core.
func BenchmarkDirectory(b *testing.B) {
	for _, n := range []int{4, 64} {
		entry := func() *Entry {
			e := &Entry{}
			for c := mem.CoreID(0); c < mem.CoreID(n); c++ {
				e.AddSharer(c, 4)
			}
			return e
		}
		b.Run(fmt.Sprintf("sharers=%d/add-count-remove", n), func(b *testing.B) {
			e := entry()
			b.ReportAllocs()
			sum := 0
			for i := 0; b.Loop(); i++ {
				c := mem.CoreID(i % n)
				e.Sharers.Remove(c)
				sum += e.Sharers.Count()
				e.AddSharer(c, 4)
			}
			if sum == 0 {
				b.Fatal("no sharers counted")
			}
		})
		b.Run(fmt.Sprintf("sharers=%d/fanout", n), func(b *testing.B) {
			e := entry()
			targets := make([]mem.CoreID, 0, MaxCores)
			b.ReportAllocs()
			for b.Loop() {
				targets = targets[:0]
				if e.Overflowed() {
					for c := 0; c < MaxCores; c++ {
						targets = append(targets, mem.CoreID(c))
					}
				} else {
					for s := e.Sharers.Bits(); s != 0; s &= s - 1 {
						targets = append(targets, mem.CoreID(bits.TrailingZeros64(s)))
					}
				}
				for _, c := range targets {
					if e.Sharers.Has(c) {
						e.Sharers.Remove(c)
						e.Sharers.Add(c)
					}
				}
			}
			if len(targets) < n {
				b.Fatalf("fan-out visited %d cores, want at least %d", len(targets), n)
			}
		})
	}
}
