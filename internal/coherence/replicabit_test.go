package coherence

import (
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
)

// linesWhere returns the first n lines from from upward that keep accepts,
// among the next 2^16.
func linesWhere(t *testing.T, from mem.LineAddr, n int, keep func(mem.LineAddr) bool) []mem.LineAddr {
	t.Helper()
	var out []mem.LineAddr
	for la := from; len(out) < n; la++ {
		if la-from >= 1<<16 {
			t.Fatalf("setup: only %d of %d lines found", len(out), n)
		}
		if keep(la) {
			out = append(out, la)
		}
	}
	return out
}

// evictL1 evicts core c's copy of la from the L1 that serves typ, by
// filling its set with lines of the same type that share no LLC set with
// la, so no LLC copy of la moves. It returns the time reached.
func evictL1(t *testing.T, e *Engine, c mem.CoreID, la mem.LineAddr, typ mem.AccessType, tm mem.Cycles) mem.Cycles {
	t.Helper()
	l1, llc := e.tiles[c].l1For(typ), e.tiles[c].llc
	for _, x := range linesWhere(t, 0x100000, l1.Ways(), func(x mem.LineAddr) bool {
		return l1.SetOf(x) == l1.SetOf(la) && llc.SetOf(x) != llc.SetOf(la)
	}) {
		tm = e.Access(c, tm, Op{Type: typ, Line: x, Class: mem.ClassPrivate}).Done
	}
	if l1.Lookup(la) != nil {
		t.Fatalf("setup: core %d's L1 still holds %#x", c, uint64(la))
	}
	return tm
}

// replicaAt returns slice s's replica of la, or nil.
func replicaAt(e *Engine, s mem.CoreID, la mem.LineAddr) *cacheLine {
	if l := e.tiles[s].llc.Lookup(la); l != nil && !l.Meta.home() {
		return l
	}
	return nil
}

// rtEngine returns a 16-core locality-aware engine at RT-1, with invariant
// checking on, after mut.
func rtEngine(mut func(*config.Config)) *Engine {
	cfg := config.Small()
	cfg.RT = 1
	if mut != nil {
		mut(cfg)
	}
	return New(cfg, Options{Scheme: LocalityAware, CheckInvariants: true})
}

// TestReplicaBitCleanMerge: at RT-1 the first remote read leaves a replica
// and an L1 copy with its replica bit set. The clean L1 victim merges into
// the replica: the replica stays and the core stays a sharer through it.
func TestReplicaBitCleanMerge(t *testing.T) {
	e := rtEngine(nil)
	la := mem.LineAddr(0x2000)
	sharedLine(e, la)
	c := mem.CoreID(2)
	home := e.homeOfLine(la, c)
	if home == c {
		t.Fatal("setup: the line is homed at the reader")
	}
	tm := rd(e, c, 0, la).Done
	if l := e.tiles[c].l1d.Lookup(la); l == nil || !l.Meta.replica {
		t.Fatal("an L1 copy filled beside a new replica must have its replica bit set")
	}
	evictL1(t, e, c, la, mem.Load, tm)
	if replicaAt(e, c, la) == nil {
		t.Fatal("a clean L1 victim must leave its replica resident")
	}
	if !e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("the core must stay a sharer through its replica")
	}
}

// TestReplicaBitKeepL1: under the keep-L1 strategy a replica eviction
// leaves the L1 copy with its replica bit cleared, and the copy's later
// eviction acknowledges the home, which drops the core.
func TestReplicaBitKeepL1(t *testing.T) {
	e := rtEngine(func(cfg *config.Config) {
		cfg.KeepL1OnReplicaEvict = true
		cfg.Replacement = config.PlainLRU // the replica leaves first
	})
	la := mem.LineAddr(0x2000)
	sharedLine(e, la)
	c := mem.CoreID(2)
	home := e.homeOfLine(la, c)
	tm := rd(e, c, 0, la).Done
	if replicaAt(e, c, la) == nil {
		t.Fatal("setup: replica expected")
	}
	// Lines on pages core c touches first are homed at c; those in the
	// replica's LLC set push the replica out. They share its L1 set too,
	// so an L1 hit on the line after each keeps it out of the L1's LRU
	// way without touching the replica's recency.
	llc := e.tiles[c].llc
	for _, x := range linesWhere(t, 0x100000, llc.Ways(), func(x mem.LineAddr) bool {
		return llc.SetOf(x) == llc.SetOf(la)
	}) {
		tm = rd(e, c, tm, x).Done
		tm = rd(e, c, tm, la).Done
	}
	if replicaAt(e, c, la) != nil {
		t.Fatal("setup: the replica should have been evicted")
	}
	l := e.tiles[c].l1d.Lookup(la)
	if l == nil {
		t.Fatal("keep-L1 strategy must preserve the L1 copy")
	}
	if l.Meta.replica {
		t.Fatal("the replica eviction must clear the surviving copy's replica bit")
	}
	if !e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("core must remain a sharer while its L1 copy lives")
	}
	evictL1(t, e, c, la, mem.Load, tm)
	if e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("the L1 eviction must acknowledge the home, which drops the core")
	}
}

// TestReplicaBitBothL1s: one line held in both L1s of a core. EHC
// interleaves every line, so a core may fetch and store the same line.
// The fetch leaves a Shared replica; the store misses it, and the home
// invalidates the writer's own replica, which must clear the replica bit
// of the L1-I copy the store leaves behind. That copy's eviction then
// acknowledges the home instead of merging into a replica that is gone.
func TestReplicaBitBothL1s(t *testing.T) {
	cfg := config.Small()
	cfg.RT = 1
	e := New(cfg, Options{Scheme: ExpectedHitCount, CheckInvariants: true})
	la := mem.LineAddr(0x2001)
	c := mem.CoreID(2)
	home := e.homeOfLine(la, c)
	if home == c {
		t.Fatal("setup: the line is homed at the reader")
	}
	tm := rd(e, 5, 0, la).Done // a second sharer: c's grant is Shared
	tm = e.Access(c, tm, Op{Type: mem.IFetch, Line: la, Class: mem.ClassInstruction}).Done
	if l := e.tiles[c].l1i.Lookup(la); l == nil || !l.Meta.replica || replicaAt(e, c, la) == nil {
		t.Fatal("setup: the fetch must leave a replica and an L1-I copy with its bit set")
	}
	tm = wr(e, c, tm, la).Done
	if replicaAt(e, c, la) != nil {
		t.Fatal("the store must invalidate the writer's Shared replica")
	}
	l := e.tiles[c].l1i.Lookup(la)
	if l == nil {
		t.Fatal("setup: the store keeps the writer's L1-I copy")
	}
	if l.Meta.replica {
		t.Fatal("invalidating the writer's replica must clear its L1-I copy's replica bit")
	}
	evictL1(t, e, c, la, mem.IFetch, tm)
	hl := e.homeEntry(home, la)
	if owner, ok := hl.Meta.dir.Owner(); !ok || owner != c || !hl.Meta.dir.Sharers.Has(c) {
		t.Fatal("the writer's L1-D copy keeps it the owner")
	}
}

// TestReplicaBitCluster: with cluster size 2 a member's copy filled from
// the cluster replica has its bit set and merges into it cleanly. A store
// by the other member invalidates the cluster replica, and the writer's
// dirty copy, whose bit says whether the store made a new replica, then
// merges into that replica or writes back to the home.
func TestReplicaBitCluster(t *testing.T) {
	e := rtEngine(func(cfg *config.Config) { cfg.ClusterSize = 2 })
	la := mem.LineAddr(0x2000)
	sharedLine(e, la)
	c, member := mem.CoreID(2), mem.CoreID(3)
	rs := e.policy.ReplicaSlice(la, c)
	home := e.homeOfLine(la, c)
	if rs != e.policy.ReplicaSlice(la, member) || rs == home {
		t.Fatal("setup: both cores must share a replica slice that is not the home")
	}
	tm := rd(e, 9, 0, la).Done // a second sharer: the cluster replica is Shared
	tm = rd(e, c, tm, la).Done
	tm = rd(e, member, tm, la).Done
	for _, core := range []mem.CoreID{c, member} {
		if l := e.tiles[core].l1d.Lookup(la); l == nil || !l.Meta.replica {
			t.Fatalf("core %d's copy must have its replica bit set", core)
		}
	}
	tm = evictL1(t, e, member, la, mem.Load, tm)
	if replicaAt(e, rs, la) == nil {
		t.Fatal("a clean L1 victim must leave the cluster replica resident")
	}
	if !e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("the home must still list the replica's first reader")
	}
	tm = wr(e, c, tm, la).Done
	if e.tiles[member].l1d.Lookup(la) != nil {
		t.Fatal("the store must invalidate the other member's copy")
	}
	l := e.tiles[c].l1d.Lookup(la)
	if l == nil || !l.Dirty {
		t.Fatal("setup: the writer holds a dirty copy")
	}
	kept := l.Meta.replica
	if kept != (replicaAt(e, rs, la) != nil) {
		t.Fatalf("writer's replica bit %v disagrees with the replica slice", kept)
	}
	evictL1(t, e, c, la, mem.Load, tm)
	hl := e.homeEntry(home, la)
	if kept {
		if r := replicaAt(e, rs, la); r == nil || !r.Dirty {
			t.Fatal("the dirty victim must merge into the writer's new replica")
		}
		return
	}
	if !hl.Dirty || hl.Meta.dir.Sharers.Has(c) {
		t.Fatal("the dirty victim must write back to the home and leave its sharers")
	}
}
