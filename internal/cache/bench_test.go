package cache

import (
	"testing"

	"lard/internal/mem"
)

// Per-line metadata of the sizes the coherence engine attaches, so a
// benchmark cache has the engine's footprint: 40-byte L1 lines and 72-byte
// LLC lines.
type (
	l1BenchMeta  struct{ _ [16]byte }
	llcBenchMeta struct{ _ [48]byte }
)

// BenchmarkCacheLookup measures Lookup, hit and miss, at the Table-1 L1-D
// geometry (512 lines x 4 ways) and LLC-slice geometry (4096 x 8). Each
// iteration probes the next of 64 caches, as a 64-core run spreads its
// accesses over 64 tiles, so the working set (~2.6 MB of L1 lines, ~19 MB
// of LLC lines) exceeds the host's caches and a lookup pays the host cache
// misses a real run pays. Within a cache the probes step through a
// permutation of the resident lines (hit) or of absent addresses that map
// onto full sets (miss, every way compared).
func BenchmarkCacheLookup(b *testing.B) {
	b.Run("L1", func(b *testing.B) { benchLookup[l1BenchMeta](b, 512, 4) })
	b.Run("LLC", func(b *testing.B) { benchLookup[llcBenchMeta](b, 4096, 8) })
}

func benchLookup[M any](b *testing.B, lines, ways int) {
	const caches = 64
	cs := make([]*Cache[M], caches)
	resident := make([][]mem.LineAddr, caches)
	for i := range cs {
		c := New[M](lines, ways)
		lru := LRU[M]()
		for a := mem.LineAddr(0); c.Len() < c.Capacity(); a++ {
			if c.Lookup(a) == nil {
				c.Insert(a, mem.Shared, lru)
			}
		}
		c.ForEach(func(l *Line[M]) { resident[i] = append(resident[i], l.Addr) })
		cs[i] = c
	}
	// absent is resident shifted into an address range never inserted: the
	// same count of probes, none of which matches.
	absent := make([][]mem.LineAddr, caches)
	for i, rs := range resident {
		for _, a := range rs {
			absent[i] = append(absent[i], a|1<<40)
		}
	}
	for _, tc := range []struct {
		name  string
		addrs [][]mem.LineAddr
		want  bool
	}{{"hit", resident, true}, {"miss", absent, false}} {
		b.Run(tc.name, func(b *testing.B) {
			// An odd stride visits every index of the power-of-two line
			// count once per pass, in an order the host prefetcher cannot
			// follow.
			const stride = 2654435761
			mask := lines - 1
			found := tc.want
			for i := 0; b.Loop(); i++ {
				c := i & (caches - 1)
				a := tc.addrs[c][((i>>6)*stride)&mask]
				found = cs[c].Lookup(a) != nil
			}
			if found != tc.want {
				b.Fatalf("last %s lookup found=%v", tc.name, found)
			}
		})
	}
}
