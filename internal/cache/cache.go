// Package cache implements the set-associative cache model used for both the
// private L1 caches and the LLC slices. The cache is generic over a metadata
// type M so the coherence engine can attach directory entries and
// replica-reuse counters to LLC lines without this package knowing about
// them. Victim selection is pluggable; the two policies from the paper
// (plain LRU and the modified LRU of §2.2.4 that first minimizes the number
// of L1 copies) are provided.
//
// Every way has a one-byte tag fingerprint in an array beside the line
// array: 0 for an invalid way, otherwise a nonzero byte of the address hash
// that the set index does not use. Insert and Invalidate are the only
// operations that make a way valid or invalid, and they keep the
// fingerprint in step, so Lookup compares the address of a way only when
// its fingerprint matches, and a miss reads the set's fingerprints and no
// line at all. Callers may change a resident line's State between valid
// states in place, never to Invalid.
//
// A line's index (Index, Insert) is its position in the set-major line
// array, set×ways + way. A resident line never moves: its index names it
// until Invalidate removes it or Insert evicts it, and At turns the index
// back into the line. The coherence engine keeps such indexes as
// back-handles to lines it already found once.
package cache

import (
	"math/bits"

	"lard/internal/mem"
)

// Line is one cache line. A Line with State Invalid is a free way. The
// fields are ordered widest first so the two one-byte fields share the
// tail padding with whatever Meta leaves over.
type Line[M any] struct {
	// Addr is the line address stored in the tag.
	Addr mem.LineAddr
	// LastUse is the LRU timestamp (monotonic per cache).
	LastUse uint64
	// Meta is caller-defined per-line metadata.
	Meta M
	// State is the MESI state of this copy.
	State mem.MESI
	// Dirty reports whether the copy differs from the next level.
	Dirty bool
}

// VictimSelector picks the index of the way to evict among a full set. Every
// line passed to the selector is valid.
type VictimSelector[M any] func(ways []Line[M]) int

// Cache is a set-associative cache with W ways and S sets.
type Cache[M any] struct {
	sets, ways int
	lines      []Line[M] // sets*ways, set-major
	fps        []uint8   // per-way tag fingerprint, 0 for an invalid way
	clock      uint64
	size       int // number of valid lines
}

// New returns a cache with the given total line count and associativity.
// totalLines must be a positive multiple of ways and totalLines/ways must be
// a power of two (so set indexing is a mask).
func New[M any](totalLines, ways int) *Cache[M] {
	if totalLines <= 0 || ways <= 0 || totalLines%ways != 0 {
		panic("cache: totalLines must be a positive multiple of ways")
	}
	sets := totalLines / ways
	if bits.OnesCount(uint(sets)) != 1 {
		panic("cache: number of sets must be a power of two")
	}
	return &Cache[M]{sets: sets, ways: ways, lines: make([]Line[M], totalLines), fps: make([]uint8, totalLines)}
}

// Sets returns the number of sets.
func (c *Cache[M]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache[M]) Ways() int { return c.ways }

// Capacity returns the total number of lines the cache can hold.
func (c *Cache[M]) Capacity() int { return c.sets * c.ways }

// Len returns the number of currently valid lines.
func (c *Cache[M]) Len() int { return c.size }

// SetOf returns the set index for line a. The index mixes the whole line
// address (a Fibonacci-hash fold) rather than selecting raw low bits: the
// LLC home interleaving fixes the low log2(cores) bits of every line mapped
// to a slice, so raw bit-selection would leave most sets of a slice unused.
// Hashed indexing is applied uniformly to every cache so all schemes see the
// same placement behaviour.
func (c *Cache[M]) SetOf(a mem.LineAddr) int {
	return int(hash(a) & uint64(c.sets-1))
}

// hash is the address fold behind SetOf. Its low bits pick the set; its top
// byte, which no set count up to 2^56 reaches, is the tag fingerprint.
func hash(a mem.LineAddr) uint64 {
	h := uint64(a) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// fingerprint returns the nonzero tag fingerprint of hash h.
func fingerprint(h uint64) uint8 {
	f := uint8(h >> 56)
	if f == 0 {
		f = 1
	}
	return f
}

// locate returns the index of the first way of a's set and a's
// fingerprint.
func (c *Cache[M]) locate(a mem.LineAddr) (base int, fp uint8) {
	h := hash(a)
	return int(h&uint64(c.sets-1)) * c.ways, fingerprint(h)
}

// Index returns the index of the valid line holding a, or -1 on a miss.
// Only ways whose fingerprint matches have their address compared.
func (c *Cache[M]) Index(a mem.LineAddr) int {
	base, fp := c.locate(a)
	for i, f := range c.fps[base : base+c.ways] {
		if f == fp && c.lines[base+i].Addr == a {
			return base + i
		}
	}
	return -1
}

// At returns the line at index i, as Index or Insert reported it. The line
// is the one they named for as long as it stays resident.
func (c *Cache[M]) At(i int) *Line[M] { return &c.lines[i] }

// Lookup returns the valid line holding a, or nil on miss. It does not touch
// LRU state; callers decide when a lookup counts as a use (Touch).
func (c *Cache[M]) Lookup(a mem.LineAddr) *Line[M] {
	if i := c.Index(a); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Touch marks l as most recently used.
func (c *Cache[M]) Touch(l *Line[M]) {
	c.clock++
	l.LastUse = c.clock
}

// Insert places line a into the cache in the given state and returns the
// index of the inserted line (see At). If the set is full, sel chooses the
// victim; the evicted line is returned with evicted=true. Inserting an
// address that is already present panics: callers must Lookup first.
func (c *Cache[M]) Insert(a mem.LineAddr, state mem.MESI, sel VictimSelector[M]) (idx int, victim Line[M], evicted bool) {
	if !state.Valid() {
		panic("cache: Insert with Invalid state")
	}
	base, fp := c.locate(a)
	fps := c.fps[base : base+c.ways]
	free := -1
	for i, f := range fps {
		if f == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if f == fp && c.lines[base+i].Addr == a {
			panic("cache: Insert of already-present line")
		}
	}
	set := c.lines[base : base+c.ways]
	if free < 0 {
		free = sel(set)
		if free < 0 || free >= len(set) {
			panic("cache: victim selector returned out-of-range way")
		}
		victim = set[free]
		evicted = true
		c.size--
	}
	c.clock++
	set[free] = Line[M]{Addr: a, State: state, LastUse: c.clock}
	fps[free] = fp
	c.size++
	return base + free, victim, evicted
}

// Invalidate removes line a if present and returns the removed copy.
func (c *Cache[M]) Invalidate(a mem.LineAddr) (removed Line[M], ok bool) {
	i := c.Index(a)
	if i < 0 {
		return Line[M]{}, false
	}
	l := &c.lines[i]
	removed = *l
	l.State = mem.Invalid
	l.Dirty = false
	c.fps[i] = 0
	c.size--
	return removed, true
}

// WaysOf returns the set holding line a as a mutable slice. Callers may
// inspect the ways (e.g. to pre-check an insertion filter) but must not
// change Addr or validity directly; use Insert and Invalidate for that.
func (c *Cache[M]) WaysOf(a mem.LineAddr) []Line[M] {
	s := c.SetOf(a)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// ForEach calls fn for every valid line. fn must not insert or invalidate.
func (c *Cache[M]) ForEach(fn func(l *Line[M])) {
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			fn(&c.lines[i])
		}
	}
}

// CollectIf returns the addresses of all valid lines for which pred is true.
// It is used by the R-NUCA page re-classification path, which must flush
// every line of a page from its old home.
func (c *Cache[M]) CollectIf(pred func(l *Line[M]) bool) []mem.LineAddr {
	var out []mem.LineAddr
	for i := range c.lines {
		if c.lines[i].State.Valid() && pred(&c.lines[i]) {
			out = append(out, c.lines[i].Addr)
		}
	}
	return out
}

// LRU is the traditional least-recently-used victim selector.
func LRU[M any]() VictimSelector[M] {
	return func(ways []Line[M]) int {
		best := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].LastUse < ways[best].LastUse {
				best = i
			}
		}
		return best
	}
}

// ModifiedLRU is the paper's LLC replacement policy (§2.2.4): it first
// selects the lines with the fewest L1 cache copies (available from the
// in-cache directory via the copies callback) and then applies LRU among
// them. With copies always returning 0 it degenerates to plain LRU.
func ModifiedLRU[M any](copies func(l *Line[M]) int) VictimSelector[M] {
	return func(ways []Line[M]) int {
		best := 0
		bestCopies := copies(&ways[0])
		for i := 1; i < len(ways); i++ {
			n := copies(&ways[i])
			if n < bestCopies || (n == bestCopies && ways[i].LastUse < ways[best].LastUse) {
				best = i
				bestCopies = n
			}
		}
		return best
	}
}
