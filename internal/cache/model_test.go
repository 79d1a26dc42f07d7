package cache

import (
	"math/rand"
	"testing"

	"lard/internal/mem"
)

// modelCache is the brute-force reference for Cache: a plain scan of every
// way, with no fingerprints. Its placement rules are Cache's: the first
// invalid way, else the LRU victim.
type modelCache struct {
	ways  int
	valid []bool
	addr  []mem.LineAddr
	last  []uint64
	clock uint64
}

func (m *modelCache) index(set int, a mem.LineAddr) int {
	for i := set * m.ways; i < (set+1)*m.ways; i++ {
		if m.valid[i] && m.addr[i] == a {
			return i
		}
	}
	return -1
}

func (m *modelCache) insert(set int, a mem.LineAddr) (idx int, victim mem.LineAddr, evicted bool) {
	idx = -1
	for i := set * m.ways; i < (set+1)*m.ways; i++ {
		if !m.valid[i] {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = set * m.ways
		for i := idx + 1; i < (set+1)*m.ways; i++ {
			if m.last[i] < m.last[idx] {
				idx = i
			}
		}
		victim, evicted = m.addr[idx], true
	}
	m.clock++
	m.valid[idx], m.addr[idx], m.last[idx] = true, a, m.clock
	return idx, victim, evicted
}

// colliders returns n addresses that share one set and one fingerprint in
// c, so Lookup and Insert must tell them apart by the full address.
func colliders(c *Cache[meta], n int) []mem.LineAddr {
	want := hash(1 << 30)
	out := []mem.LineAddr{1 << 30}
	for a := mem.LineAddr(1<<30 + 1); len(out) < n; a++ {
		h := hash(a)
		if h&uint64(c.sets-1) == want&uint64(c.sets-1) && fingerprint(h) == fingerprint(want) {
			out = append(out, a)
		}
	}
	return out
}

// TestCacheMatchesModel runs random Insert/Invalidate/Lookup/Touch
// sequences against the brute-force model. The address pool mixes random
// lines with lines that share both set and fingerprint, so a fingerprint
// match is not taken for a hit. After every operation the index each
// address resolves to must agree with the model; Len, ForEach and the
// fingerprint invariant (nonzero exactly on valid ways, and equal to the
// line's own fingerprint) are checked as well.
func TestCacheMatchesModel(t *testing.T) {
	for _, geo := range []struct{ lines, ways int }{{16, 4}, {64, 8}, {8, 1}, {48, 3}} {
		c := New[meta](geo.lines, geo.ways)
		m := &modelCache{
			ways:  geo.ways,
			valid: make([]bool, geo.lines),
			addr:  make([]mem.LineAddr, geo.lines),
			last:  make([]uint64, geo.lines),
		}
		rng := rand.New(rand.NewSource(int64(geo.lines*10 + geo.ways)))
		pool := colliders(c, 2*geo.ways+1)
		for i := 0; i < 64; i++ {
			pool = append(pool, mem.LineAddr(rng.Intn(4*geo.lines)))
		}
		lru := LRU[meta]()
		for op := 0; op < 20000; op++ {
			a := pool[rng.Intn(len(pool))]
			set := c.SetOf(a)
			want := m.index(set, a)
			switch rng.Intn(4) {
			case 0, 1:
				if want >= 0 {
					break
				}
				idx, victim, evicted := c.Insert(a, mem.Shared, lru)
				midx, mvictim, mevicted := m.insert(set, a)
				if idx != midx || evicted != mevicted || (evicted && victim.Addr != mvictim) {
					t.Fatalf("%v op %d: Insert(%#x) = (%d, %#x, %v), model (%d, %#x, %v)",
						geo, op, a, idx, victim.Addr, evicted, midx, mvictim, mevicted)
				}
			case 2:
				_, ok := c.Invalidate(a)
				if ok != (want >= 0) {
					t.Fatalf("%v op %d: Invalidate(%#x) ok=%v, model holds it at %d", geo, op, a, ok, want)
				}
				if ok {
					m.valid[want] = false
				}
			case 3:
				if l := c.Lookup(a); l != nil {
					c.Touch(l)
					m.clock++
					m.last[want] = m.clock
				}
			}
			for _, p := range pool {
				if got, want := c.Index(p), m.index(c.SetOf(p), p); got != want {
					t.Fatalf("%v op %d: Index(%#x) = %d, model %d", geo, op, p, got, want)
				}
			}
			n := 0
			for i := range c.lines {
				valid := c.lines[i].State.Valid()
				if valid != m.valid[i] || (valid && c.lines[i].Addr != m.addr[i]) {
					t.Fatalf("%v op %d: way %d holds (%v, %#x), model (%v, %#x)",
						geo, op, i, valid, c.lines[i].Addr, m.valid[i], m.addr[i])
				}
				if fp := c.fps[i]; valid != (fp != 0) || (valid && fp != fingerprint(hash(c.lines[i].Addr))) {
					t.Fatalf("%v op %d: way %d valid=%v has fingerprint %#x", geo, op, i, valid, fp)
				}
				if valid {
					n++
				}
			}
			seen := 0
			c.ForEach(func(l *Line[meta]) {
				if m.index(c.SetOf(l.Addr), l.Addr) < 0 {
					t.Fatalf("%v op %d: ForEach visited %#x, which the model does not hold", geo, op, l.Addr)
				}
				seen++
			})
			if c.Len() != n || seen != n {
				t.Fatalf("%v op %d: Len %d, ForEach %d, model %d", geo, op, c.Len(), seen, n)
			}
		}
	}
}
