package coherence

import (
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
)

// testEngine returns a 16-core engine with invariant checking on.
func testEngine(s Scheme) *Engine {
	cfg := config.Small()
	return New(cfg, Options{Scheme: s, CheckInvariants: true})
}

// read/write helpers driving one access and returning the result.
func rd(e *Engine, c mem.CoreID, t mem.Cycles, la mem.LineAddr) AccessResult {
	return e.Access(c, t, Op{Type: mem.Load, Line: la, Class: mem.ClassSharedRW})
}

func wr(e *Engine, c mem.CoreID, t mem.Cycles, la mem.LineAddr) AccessResult {
	return e.Access(c, t, Op{Type: mem.Store, Line: la, Class: mem.ClassSharedRW})
}

// shared makes la's page shared under R-NUCA-style placement by touching a
// sibling line from another core first.
func sharedLine(e *Engine, la mem.LineAddr) {
	if !e.rnucaPlacement {
		return
	}
	rd(e, 14, 0, la^1)
	rd(e, 15, 0, la^1)
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{SNUCA: "S-NUCA", RNUCA: "R-NUCA", VR: "VR", ASR: "ASR", LocalityAware: "RT"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestColdMissGoesOffChip(t *testing.T) {
	e := testEngine(SNUCA)
	res := rd(e, 0, 0, 0x1000)
	if res.Miss != stats.OffChipMiss {
		t.Fatalf("cold access = %v, want off-chip", res.Miss)
	}
	if res.Breakdown[stats.LLCHomeToOffChip] == 0 {
		t.Fatal("off-chip latency component must be charged")
	}
}

func TestL1Hit(t *testing.T) {
	e := testEngine(SNUCA)
	r1 := rd(e, 0, 0, 0x1000)
	r2 := rd(e, 0, r1.Done, 0x1000)
	if r2.Miss != stats.L1Hit {
		t.Fatalf("second access = %v, want L1 hit", r2.Miss)
	}
	if r2.Done != r1.Done+1 {
		t.Fatalf("L1 hit latency = %d, want 1", r2.Done-r1.Done)
	}
}

func TestHomeHitAfterL1Invalidation(t *testing.T) {
	e := testEngine(SNUCA)
	r1 := rd(e, 0, 0, 0x1000)
	e.tiles[0].l1d.Invalidate(0x1000)
	r2 := rd(e, 0, r1.Done, 0x1000)
	if r2.Miss != stats.LLCHomeHit {
		t.Fatalf("refetch = %v, want home hit", r2.Miss)
	}
}

// TestExclusiveGrantAndSilentUpgrade: a sole reader gets E and upgrades to M
// without a home transaction.
func TestExclusiveGrantAndSilentUpgrade(t *testing.T) {
	e := testEngine(SNUCA)
	r1 := rd(e, 0, 0, 0x1000)
	l1 := e.tiles[0].l1d.Lookup(0x1000)
	if l1 == nil || l1.State != mem.Exclusive {
		t.Fatalf("sole reader must hold E, got %v", l1)
	}
	r2 := wr(e, 0, r1.Done, 0x1000)
	if r2.Miss != stats.L1Hit {
		t.Fatalf("E->M upgrade must be an L1 hit, got %v", r2.Miss)
	}
	if l1.State != mem.Modified || !l1.Dirty {
		t.Fatal("silent upgrade must set M/dirty")
	}
}

// TestSecondReaderGetsShared: two readers end in S; the owner is downgraded
// with a synchronous write-back.
func TestSecondReaderGetsShared(t *testing.T) {
	e := testEngine(SNUCA)
	r1 := wr(e, 0, 0, 0x1000) // owner in M
	r2 := rd(e, 1, r1.Done, 0x1000)
	if r2.Breakdown[stats.LLCHomeToSharers] == 0 {
		t.Fatal("owner write-back must be charged to LLC-Home-To-Sharers")
	}
	if l := e.tiles[0].l1d.Lookup(0x1000); l == nil || l.State != mem.Shared || l.Dirty {
		t.Fatalf("previous owner must be downgraded to clean S, got %+v", l)
	}
	if l := e.tiles[1].l1d.Lookup(0x1000); l == nil || l.State != mem.Shared {
		t.Fatal("second reader must hold S")
	}
}

// TestWriteInvalidatesAllSharers: a store removes every other copy and bumps
// the version.
func TestWriteInvalidatesAllSharers(t *testing.T) {
	e := testEngine(SNUCA)
	var tm mem.Cycles
	for c := mem.CoreID(0); c < 6; c++ {
		tm = rd(e, c, tm, 0x1000).Done
	}
	res := wr(e, 5, tm, 0x1000)
	if res.Breakdown[stats.LLCHomeToSharers] == 0 {
		t.Fatal("invalidations must be charged")
	}
	for c := mem.CoreID(0); c < 5; c++ {
		if e.tiles[c].l1d.Lookup(0x1000) != nil {
			t.Fatalf("core %d still holds an invalidated line", c)
		}
	}
	home := e.homeOfLine(0x1000, 5)
	hl := e.homeEntry(home, 0x1000)
	if hl.Meta.dir.Version != 1 {
		t.Fatalf("version = %d, want 1", hl.Meta.dir.Version)
	}
	if !hl.Meta.dir.OwnedBy(5) {
		t.Fatal("writer must be the registered owner")
	}
	if hl.Meta.dir.Sharers.Count() != 1 {
		t.Fatalf("sharer count = %d, want 1", hl.Meta.dir.Sharers.Count())
	}
}

// TestUpgradeKeepsWriterCopy: an S-state writer upgrades without refetching.
func TestUpgradeKeepsWriterCopy(t *testing.T) {
	e := testEngine(SNUCA)
	t1 := rd(e, 0, 0, 0x1000).Done
	t2 := rd(e, 1, t1, 0x1000).Done // both S now
	res := wr(e, 0, t2, 0x1000)
	if res.Miss == stats.L1Hit {
		t.Fatal("S-state write must reach the home")
	}
	if l := e.tiles[0].l1d.Lookup(0x1000); l == nil || l.State != mem.Modified {
		t.Fatal("upgraded copy must be M")
	}
	if e.tiles[1].l1d.Lookup(0x1000) != nil {
		t.Fatal("other sharer must be invalidated")
	}
}

// TestACKwiseOverflowBroadcast: more sharers than pointers flips the set to
// broadcast mode; a write still invalidates everyone.
func TestACKwiseOverflowBroadcast(t *testing.T) {
	e := testEngine(SNUCA)
	var tm mem.Cycles
	for c := mem.CoreID(0); c < 9; c++ { // > 4 pointers
		tm = rd(e, c, tm, 0x1000).Done
	}
	home := e.homeOfLine(0x1000, 0)
	ent := e.homeEntry(home, 0x1000).Meta.dir
	if !ent.Overflowed() {
		t.Fatal("9 sharers must overflow ACKwise-4")
	}
	wr(e, 0, tm, 0x1000)
	for c := mem.CoreID(1); c < 9; c++ {
		if e.tiles[c].l1d.Lookup(0x1000) != nil {
			t.Fatalf("core %d survived a broadcast invalidation", c)
		}
	}
}

// TestInclusion: evicting the home line invalidates every L1 copy.
func TestInclusion(t *testing.T) {
	e := testEngine(SNUCA)
	tm := rd(e, 3, 0, 0x1000).Done
	home := e.homeOfLine(0x1000, 3)
	e.evictHomeLine(home, 0x1000, tm)
	if e.tiles[3].l1d.Lookup(0x1000) != nil {
		t.Fatal("home eviction must back-invalidate L1 copies (inclusive LLC)")
	}
	// A subsequent read must go off-chip again.
	if res := rd(e, 3, tm+100, 0x1000); res.Miss != stats.OffChipMiss {
		t.Fatalf("refetch = %v, want off-chip", res.Miss)
	}
}

// TestDirtyWritebackOnL1Evict: a dirty L1 victim merges into the home copy.
func TestDirtyWritebackOnL1Evict(t *testing.T) {
	e := testEngine(SNUCA)
	tm := wr(e, 0, 0, 0x1000).Done
	victim := *e.tiles[0].l1d.Lookup(0x1000)
	e.tiles[0].l1d.Invalidate(0x1000)
	e.handleL1Evict(0, victim, e.tiles[0].l1i, tm)
	home := e.homeOfLine(0x1000, 0)
	hl := e.homeEntry(home, 0x1000)
	if !hl.Dirty {
		t.Fatal("home must be dirty after merging the write-back")
	}
	if _, owned := hl.Meta.dir.Owner(); hl.Meta.dir.Sharers.Count() != 0 || owned {
		t.Fatal("directory must drop the evicting core")
	}
}

// ---- locality-aware protocol ----------------------------------------------

// TestRTPromotionCreatesReplica: the §2.2.1 flow end to end.
func TestRTPromotionCreatesReplica(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	if e.homeOfLine(la, c) == c {
		t.Skip("layout placed home locally; pick another line")
	}
	var tm mem.Cycles
	for i := 0; i < 2; i++ {
		tm = rd(e, c, tm, la).Done
		e.tiles[c].l1d.Invalidate(la)
		if l := e.tiles[c].llc.Lookup(la); l != nil && !l.Meta.home() {
			t.Fatalf("replica before reaching RT at access %d", i)
		}
	}
	tm = rd(e, c, tm, la).Done
	l := e.tiles[c].llc.Lookup(la)
	if l == nil || l.Meta.home() {
		t.Fatal("3rd access must create a local replica (RT=3)")
	}
	if l.Meta.replicaReuse != 1 {
		t.Fatalf("replica reuse = %d, want 1 on creation", l.Meta.replicaReuse)
	}
	// Subsequent L1 misses hit the replica and bump its reuse counter.
	e.tiles[c].l1d.Invalidate(la)
	res := rd(e, c, tm, la)
	if res.Miss != stats.LLCReplicaHit {
		t.Fatalf("post-replica access = %v, want replica hit", res.Miss)
	}
	if l.Meta.replicaReuse != 2 {
		t.Fatalf("replica reuse = %d, want 2", l.Meta.replicaReuse)
	}
}

// TestRTWriteInvalidatesReplicas: a write by another core removes replicas
// and the acknowledgement feeds the classifier.
func TestRTWriteInvalidatesReplicas(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 3; i++ {
		tm = rd(e, c, tm, la).Done
		e.tiles[c].l1d.Invalidate(la)
	}
	if l := e.tiles[c].llc.Lookup(la); l == nil || l.Meta.home() {
		t.Fatal("replica expected")
	}
	tm = wr(e, 9, tm, la).Done
	if l := e.tiles[c].llc.Lookup(la); l != nil && !l.Meta.home() {
		t.Fatal("write must invalidate the remote replica")
	}
	// The core retained replica status (reuse sum >= RT): the next read
	// immediately re-creates the replica.
	tm = rd(e, c, tm, la).Done
	if l := e.tiles[c].llc.Lookup(la); l == nil || l.Meta.home() {
		t.Fatal("replica-mode core must get a fresh replica on the next read")
	}
}

// TestRTMigratoryExclusiveReplica: a promoted writer receives an M-state
// replica so interleaved read/write streaks stay local (§2.3.1).
func TestRTMigratoryExclusiveReplica(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	// Three sole writes promote via the migratory rule.
	for i := 0; i < 3; i++ {
		tm = wr(e, c, tm, la).Done
		victim := *e.tiles[c].l1d.Lookup(la)
		e.tiles[c].l1d.Invalidate(la)
		e.handleL1Evict(c, victim, e.tiles[c].l1i, tm)
	}
	l := e.tiles[c].llc.Lookup(la)
	if l == nil || l.Meta.home() {
		t.Fatal("migratory promotion must create a replica")
	}
	if !l.State.Writable() {
		t.Fatalf("migratory replica must be E/M, got %v", l.State)
	}
	// A write now hits the local replica without a home transaction.
	res := wr(e, c, tm, la)
	if res.Miss != stats.LLCReplicaHit {
		t.Fatalf("write on M/E replica = %v, want replica hit", res.Miss)
	}
}

// TestRTLocalHomeNeverReplicates: §2.2.1 — when the home is local the line
// goes to the L1 only.
func TestRTLocalHomeNeverReplicates(t *testing.T) {
	e := testEngine(LocalityAware)
	// A private page: first touch by core 3 homes it at core 3.
	la := mem.LineAddr(0x5000)
	var tm mem.Cycles
	for i := 0; i < 6; i++ {
		tm = rd(e, 3, tm, la).Done
		e.tiles[3].l1d.Invalidate(la)
	}
	if l := e.tiles[3].llc.Lookup(la); l == nil || !l.Meta.home() {
		t.Fatal("the local copy must be the home itself, never a replica")
	}
}

// TestReplicaEvictionDemotes: replica eviction with low reuse demotes the
// core; its next access goes to the home again.
func TestReplicaEvictionDemotes(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 3; i++ {
		tm = rd(e, c, tm, la).Done
		e.tiles[c].l1d.Invalidate(la)
	}
	l := e.tiles[c].llc.Lookup(la)
	victim := *l
	e.tiles[c].llc.Invalidate(la)
	e.replicaEvicted(c, victim, tm) // replica reuse 1 < RT: demote
	res := rd(e, c, tm, la)
	if res.Miss != stats.LLCHomeHit {
		t.Fatalf("demoted core's access = %v, want home hit", res.Miss)
	}
	if l := e.tiles[c].llc.Lookup(la); l != nil && !l.Meta.home() {
		t.Fatal("demoted core must not receive a replica immediately")
	}
}

// TestReplicaEvictionBackInvalidatesL1: §2.2.3.
func TestReplicaEvictionBackInvalidatesL1(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 4; i++ {
		tm = rd(e, c, tm, la).Done
		if i < 3 {
			e.tiles[c].l1d.Invalidate(la)
		}
	}
	if e.tiles[c].l1d.Lookup(la) == nil {
		t.Fatal("setup: L1 copy expected")
	}
	l := e.tiles[c].llc.Lookup(la)
	victim := *l
	e.tiles[c].llc.Invalidate(la)
	e.replicaEvicted(c, victim, tm)
	if e.tiles[c].l1d.Lookup(la) != nil {
		t.Fatal("replica eviction must back-invalidate the L1 copy")
	}
	home := e.homeOfLine(la, c)
	if e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("directory must drop the core after replica eviction")
	}
}

// TestL1EvictMergesIntoReplica: with a replica present, a dirty L1 victim
// merges locally and the home is NOT notified (§2.2.3).
func TestL1EvictMergesIntoReplica(t *testing.T) {
	e := testEngine(LocalityAware)
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 3; i++ {
		tm = wr(e, c, tm, la).Done
		victim := *e.tiles[c].l1d.Lookup(la)
		e.tiles[c].l1d.Invalidate(la)
		e.handleL1Evict(c, victim, e.tiles[c].l1i, tm)
	}
	// Now an M replica exists. Write again, then evict the dirty L1 line.
	tm = wr(e, c, tm, la).Done
	victim := *e.tiles[c].l1d.Lookup(la)
	e.tiles[c].l1d.Invalidate(la)
	e.handleL1Evict(c, victim, e.tiles[c].l1i, tm)
	l := e.tiles[c].llc.Lookup(la)
	if l == nil || !l.Dirty {
		t.Fatal("dirty data must merge into the replica")
	}
	home := e.homeOfLine(la, c)
	if !e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("the core must remain a sharer through its replica")
	}
}
