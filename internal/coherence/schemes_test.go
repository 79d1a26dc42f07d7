package coherence

import (
	"math/rand"
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
)

// ---- placement -------------------------------------------------------------

func TestSNUCAInterleaves(t *testing.T) {
	e := testEngine(SNUCA)
	for la := mem.LineAddr(0); la < 64; la++ {
		if got := e.homeOfLine(la, 0); got != mem.CoreID(la%16) {
			t.Fatalf("home(%d) = %d, want %d", la, got, la%16)
		}
	}
}

func TestRNUCAPrivatePlacement(t *testing.T) {
	e := testEngine(RNUCA)
	la := mem.LineAddr(0x9_0000) // fresh page
	rd(e, 7, 0, la)
	if got := e.homeOfLine(la, 7); got != 7 {
		t.Fatalf("private page must be homed at the first toucher, got %d", got)
	}
	// Another line of the same page follows the page's class.
	if got := e.homeOfLine(la+1, 3); got != 7 {
		t.Fatalf("same-page line must share the private home, got %d", got)
	}
}

func TestRNUCAReclassification(t *testing.T) {
	e := testEngine(RNUCA)
	la := mem.LineAddr(0x9_0000)
	tm := rd(e, 7, 0, la).Done
	if e.PageReclassifications() != 0 {
		t.Fatal("no reclassification yet")
	}
	// A second core touches the page: private -> shared, old copies flushed.
	rd(e, 3, tm, la+2)
	if e.PageReclassifications() == 0 {
		t.Fatal("second-core touch must reclassify the page")
	}
	if got := e.homeOfLine(la, 7); got != mem.CoreID(la%16) {
		t.Fatalf("shared page must interleave, got %d", got)
	}
	// The old private-home copy must be gone (flushed).
	if e.homeEntry(7, la) != nil && e.homeOfLine(la, 7) != 7 {
		t.Fatal("old home copy must have been flushed")
	}
	// The toucher's L1 copy was invalidated by the flush.
	if e.tiles[7].l1d.Lookup(la) != nil {
		t.Fatal("flush must invalidate cached copies of the re-homed page")
	}
}

func TestRNUCAInstructionClusterHome(t *testing.T) {
	e := testEngine(RNUCA)
	la := mem.LineAddr(0xA_0000)
	e.Access(5, 0, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction})
	// Requesters in the same 4-core cluster share a home; a different
	// cluster uses its own slice (rotational interleaving, §3.3).
	h5 := e.homeOfLine(la, 5)
	h6 := e.homeOfLine(la, 6)
	h12 := e.homeOfLine(la, 12)
	if h5/4 != 1 || h6/4 != 1 {
		t.Fatalf("cluster-1 requesters must be homed in cluster 1: %d, %d", h5, h6)
	}
	if h5 != h6 {
		t.Fatalf("same line, same cluster: home must match (%d vs %d)", h5, h6)
	}
	if h12/4 != 3 {
		t.Fatalf("cluster-3 requester must be homed in cluster 3, got %d", h12)
	}
}

func TestRNUCAInstructionClusterIndependentCopies(t *testing.T) {
	e := testEngine(RNUCA)
	la := mem.LineAddr(0xA_0000)
	r1 := e.Access(0, 0, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction})
	r2 := e.Access(4, r1.Done, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction})
	if r2.Miss != stats.OffChipMiss {
		t.Fatalf("each cluster fetches its own copy: %v, want off-chip", r2.Miss)
	}
	r3 := e.Access(5, r2.Done, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction})
	if r3.Miss != stats.LLCHomeHit {
		t.Fatalf("same-cluster fetch = %v, want home hit", r3.Miss)
	}
}

// TestLARDTreatsInstructionsAsShared: the locality-aware scheme does not use
// instruction-cluster replication (§2.1): instructions interleave like any
// shared data and replicate through the classifier.
func TestLARDTreatsInstructionsAsShared(t *testing.T) {
	e := testEngine(LocalityAware)
	la := mem.LineAddr(0xA_0000)
	e.Access(5, 0, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction})
	if got := e.homeOfLine(la, 5); got != mem.CoreID(la%16) {
		t.Fatalf("instruction home = %d, want interleaved %d", got, la%16)
	}
	var tm mem.Cycles
	for i := 0; i < 3; i++ {
		tm = e.Access(5, tm, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction}).Done
		e.tiles[5].l1i.Invalidate(la)
	}
	if l := e.tiles[5].llc.Lookup(la); l == nil || l.Meta.home() {
		t.Fatal("instructions with reuse must be replicated like data")
	}
}

// ---- Victim Replication -----------------------------------------------------

// TestVRVictimInsertion: an L1 eviction places the victim into the local
// slice; a later access hits it and MOVES it back to the L1 (exclusive).
func TestVRVictimInsertion(t *testing.T) {
	e := testEngine(VR)
	la := mem.LineAddr(0x2001) // home = 1, requester 0
	tm := rd(e, 0, 0, la).Done
	victim := *e.tiles[0].l1d.Lookup(la)
	e.tiles[0].l1d.Invalidate(la)
	e.handleL1Evict(0, victim, e.tiles[0].l1i, tm)
	l := e.tiles[0].llc.Lookup(la)
	if l == nil || l.Meta.home() {
		t.Fatal("VR must insert the victim into the local slice")
	}
	res := rd(e, 0, tm, la)
	if res.Miss != stats.LLCReplicaHit {
		t.Fatalf("VR replica hit expected, got %v", res.Miss)
	}
	if e.tiles[0].llc.Lookup(la) != nil {
		t.Fatal("VR is exclusive: the hit must invalidate the LLC replica")
	}
	if e.tiles[0].l1d.Lookup(la) == nil {
		t.Fatal("the line must now live in the L1")
	}
}

// TestVRInsertionFilter: victims may only displace invalid ways, replicas,
// or sharer-free home lines — never a home line with sharers (§3.3).
func TestVRInsertionFilter(t *testing.T) {
	e := testEngine(VR)
	// Build a full set in core 0's slice out of home lines with sharers.
	tl := e.tiles[0]
	var tm mem.Cycles
	filled := 0
	for la := mem.LineAddr(0); filled < tl.llc.Ways(); la++ {
		if e.homeOfLine(la, 0) != 0 || tl.llc.SetOf(la) != tl.llc.SetOf(0x10) {
			continue
		}
		// Another core keeps an L1 copy, so the home line has a sharer.
		tm = rd(e, 1, tm, la).Done
		filled++
	}
	set := tl.llc.WaysOf(0x10)
	if got := victimAllowedVR(set); got != -1 {
		t.Fatalf("filter must refuse a set full of shared home lines, got way %d", got)
	}
}

// TestVRDirtyVictimWritesBack: when the victim cannot be inserted, a dirty
// line is written back to the home.
func TestVRDirtyVictimNotifiesHome(t *testing.T) {
	e := testEngine(SNUCA) // scheme without local insertion
	la := mem.LineAddr(0x2001)
	tm := wr(e, 0, 0, la).Done
	victim := *e.tiles[0].l1d.Lookup(la)
	e.tiles[0].l1d.Invalidate(la)
	e.handleL1Evict(0, victim, e.tiles[0].l1i, tm)
	hl := e.homeEntry(e.homeOfLine(la, 0), la)
	if !hl.Dirty {
		t.Fatal("dirty victim must merge at the home")
	}
}

// ---- ASR --------------------------------------------------------------------

// TestASRLevelZeroNeverReplicates.
func TestASRLevelZeroNeverReplicates(t *testing.T) {
	cfg := config.Small()
	e := New(cfg, Options{Scheme: ASR, ASRLevel: 0, CheckInvariants: true})
	la := mem.LineAddr(0x2001)
	var tm mem.Cycles
	tm = rd(e, 1, tm, la).Done // second core: line becomes "shared"
	for i := 0; i < 5; i++ {
		tm = rd(e, 0, tm, la).Done
		victim := *e.tiles[0].l1d.Lookup(la)
		e.tiles[0].l1d.Invalidate(la)
		e.handleL1Evict(0, victim, e.tiles[0].l1i, tm)
	}
	if l := e.tiles[0].llc.Lookup(la); l != nil && !l.Meta.home() {
		t.Fatal("ASR level 0 must never replicate")
	}
}

// TestASRSharedReadOnlyGating: ASR replicates shared read-only victims at
// level 1, but never lines that have been written, and never lines only one
// core has touched (§3.3).
func TestASRSharedReadOnlyGating(t *testing.T) {
	cfg := config.Small()
	e := New(cfg, Options{Scheme: ASR, ASRLevel: 1, CheckInvariants: true})
	evict := func(c mem.CoreID, la mem.LineAddr, tm mem.Cycles) {
		if l := e.tiles[c].l1d.Lookup(la); l != nil {
			victim := *l
			e.tiles[c].l1d.Invalidate(la)
			e.handleL1Evict(c, victim, e.tiles[c].l1i, tm)
		}
	}
	// Shared read-only line: replicated.
	ro := mem.LineAddr(0x2001)
	tm := rd(e, 1, 0, ro).Done
	tm = rd(e, 0, tm, ro).Done
	evict(0, ro, tm)
	if l := e.tiles[0].llc.Lookup(ro); l == nil || l.Meta.home() {
		t.Fatal("ASR must replicate a shared read-only victim at level 1")
	}
	// Written line: excluded forever.
	rw := mem.LineAddr(0x3001)
	tm = wr(e, 1, tm, rw).Done
	tm = rd(e, 0, tm, rw).Done
	evict(0, rw, tm)
	if l := e.tiles[0].llc.Lookup(rw); l != nil && !l.Meta.home() {
		t.Fatal("ASR must not replicate ever-written lines")
	}
	// Private (single-toucher) line: not classified shared, excluded.
	pv := mem.LineAddr(0x4002)
	tm = rd(e, 0, tm, pv).Done
	evict(0, pv, tm)
	if l := e.tiles[0].llc.Lookup(pv); l != nil && !l.Meta.home() {
		t.Fatal("ASR must not replicate private lines")
	}
}

// ---- cluster-level replication (§2.3.4) -------------------------------------

func TestClusterReplicaPlacementAndLookup(t *testing.T) {
	cfg := config.Small()
	cfg.ClusterSize = 4
	e := New(cfg, Options{Scheme: LocalityAware, CheckInvariants: true})
	// Make a page shared first so the home interleaves.
	rd(e, 14, 0, 0x2000^1)
	rd(e, 15, 0, 0x2000^1)
	c := mem.CoreID(1) // cluster 0: slices 0-3
	la := mem.LineAddr(0x2007)
	home := e.homeOfLine(la, c)
	rs := e.replicaSliceFor(la, c)
	if rs/4 != 0 {
		t.Fatalf("replica slice %d must be in the requester's cluster", rs)
	}
	if home == rs {
		t.Skip("home fell inside the cluster at the replica slice")
	}
	var tm mem.Cycles
	for i := 0; i < 3; i++ {
		tm = rd(e, c, tm, la).Done
		e.tiles[c].l1d.Invalidate(la)
	}
	if l := e.tiles[rs].llc.Lookup(la); l == nil || l.Meta.home() {
		t.Fatalf("replica must be placed at the cluster slice %d", rs)
	}
	// Another cluster member hits the same replica.
	res := rd(e, 2, tm, la)
	if res.Miss != stats.LLCReplicaHit {
		t.Fatalf("cluster member access = %v, want replica hit", res.Miss)
	}
	// A write from outside invalidates the cluster replica and every
	// cluster L1 copy.
	wr(e, 9, res.Done, la)
	if l := e.tiles[rs].llc.Lookup(la); l != nil && !l.Meta.home() {
		t.Fatal("cluster replica must be invalidated on a write")
	}
	if e.tiles[2].l1d.Lookup(la) != nil {
		t.Fatal("cluster L1 copies must be back-invalidated hierarchically")
	}
}

// TestClusterSize64EquivalentToNoReplication: with one cluster covering the
// chip the replica slice coincides with the home for shared lines, so no
// replicas are created (the C-64 bar of Figure 10).
func TestClusterSize64NoReplicas(t *testing.T) {
	cfg := config.Small()
	cfg.ClusterSize = 16 // whole (small) chip
	e := New(cfg, Options{Scheme: LocalityAware, CheckInvariants: true})
	rd(e, 14, 0, 0x2000^1)
	rd(e, 15, 0, 0x2000^1)
	la := mem.LineAddr(0x2007)
	var tm mem.Cycles
	for i := 0; i < 5; i++ {
		tm = rd(e, 1, tm, la).Done
		e.tiles[1].l1d.Invalidate(la)
	}
	ins, _ := e.ReplicaStats()
	if ins != [mem.NumDataClasses]uint64{} {
		t.Fatalf("chip-wide cluster must never replicate, got %v", ins)
	}
}

// ---- oracle -----------------------------------------------------------------

// TestOracleFunctionalEquivalence: the §2.3.2 oracle changes only
// latency/energy, never functional behaviour.
func TestOracleFunctionalEquivalence(t *testing.T) {
	cfgA := config.Small()
	cfgB := config.Small()
	cfgB.LookupOracle = true
	a := New(cfgA, Options{Scheme: LocalityAware, CheckInvariants: true})
	b := New(cfgB, Options{Scheme: LocalityAware, CheckInvariants: true})
	rng := rand.New(rand.NewSource(7))
	var ta, tb mem.Cycles
	for i := 0; i < 5000; i++ {
		c := mem.CoreID(rng.Intn(16))
		la := mem.LineAddr(0x2000 + rng.Intn(256))
		op := Op{Type: mem.Load, Line: la, Class: mem.ClassSharedRW}
		if rng.Intn(10) == 0 {
			op.Type = mem.Store
		}
		ra := a.Access(c, ta, op)
		rb := b.Access(c, tb, op)
		ta, tb = ra.Done, rb.Done
		if ra.Miss != rb.Miss {
			t.Fatalf("op %d: oracle changed service point: %v vs %v", i, ra.Miss, rb.Miss)
		}
	}
}
