package coherence

import (
	"reflect"
	"testing"
	"unsafe"

	"lard/internal/config"
	"lard/internal/core"
	"lard/internal/mem"
	"lard/internal/stats"
)

// homeCfg is a 64-core machine with Small's cache sizes, so every Figure-9
// classifier size up to k = 64 validates.
func homeCfg(k, cluster int) *config.Config {
	cfg := config.Small()
	cfg.Cores, cfg.MeshW, cfg.MeshH = 64, 8, 8
	cfg.ClassifierK = k
	cfg.ClusterSize = cluster
	return cfg
}

// driveHomeLine takes one home line through home reads that promote
// replicas, a replica eviction, a write that invalidates every copy, and
// more reads, and returns the time reached.
func driveHomeLine(t *testing.T, e *Engine, la mem.LineAddr) mem.Cycles {
	t.Helper()
	sharedLine(e, la)
	var tm mem.Cycles
	for c := mem.CoreID(0); c < 6; c++ {
		for i := 0; i < 4; i++ {
			tm = rd(e, c, tm, la).Done
			e.tiles[c].l1d.Invalidate(la)
		}
	}
	evicted := false
	for s := range e.tiles {
		if l := e.tiles[s].llc.Lookup(la); l != nil && !l.Meta.home {
			victim := *l
			e.tiles[s].llc.Invalidate(la)
			e.replicaEvicted(mem.CoreID(s), victim, tm)
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("setup: no replica of the line to evict")
	}
	tm = wr(e, 7, tm, la).Done
	for _, c := range []mem.CoreID{7, 8, 9} {
		for i := 0; i < 3; i++ {
			tm = rd(e, c, tm, la).Done
			e.tiles[c].l1d.Invalidate(la)
		}
	}
	return tm
}

// TestRecycledEntryMatchesFresh: a directory entry recycled through the
// engine's free list, with the per-line policy state it carries, is
// indistinguishable from a newly built one — for every Figure-9 Limited-k
// size (inline and heap-backed), the Complete classifier, cluster
// replication and EHC's hit counter. Under RT with k > 0 the entry also
// keeps its own record's classifier.
func TestRecycledEntryMatchesFresh(t *testing.T) {
	cases := []struct {
		name       string
		scheme     Scheme
		k, cluster int
	}{
		{"RT/k=1", LocalityAware, 1, 1},
		{"RT/k=3", LocalityAware, 3, 1},
		{"RT/k=5", LocalityAware, 5, 1},
		{"RT/k=7", LocalityAware, 7, 1},
		{"RT/k=64", LocalityAware, 64, 1},
		{"RT/complete", LocalityAware, 0, 1},
		{"RT/k=3/cluster=4", LocalityAware, 3, 4},
		{"EHC", ExpectedHitCount, 3, 1},
	}
	const la = mem.LineAddr(0x2000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := homeCfg(tc.k, tc.cluster)
			opts := Options{Scheme: tc.scheme, CheckInvariants: true}
			e := New(cfg, opts)
			tm := driveHomeLine(t, e, la)

			home := e.homeOfLine(la, 0)
			ent := e.homeEntry(home, la).Meta.dir
			clf := ent.Classifier
			if clf == nil {
				t.Fatal("setup: the line carries no policy state")
			}
			if _, inline := clf.(*core.Limited); inline != (tc.scheme == LocalityAware && tc.k > 0) {
				t.Fatalf("policy state %T: a Limited-k record classifier exactly under RT with k > 0", clf)
			}
			fresh := New(cfg, opts).newDirEntry()
			if tc.scheme == LocalityAware && sameModes(e.classifierOf(ent), e.classifierOf(fresh), cfg.Cores) {
				t.Fatal("setup: the classifier never left the Initial state")
			}
			if st, ok := clf.(*ehcState); ok && st.homeReads == 0 {
				t.Fatal("setup: the EHC counter never advanced")
			}
			if tc.cluster > 1 && len(ent.ReplicaSlices) == 0 {
				t.Fatal("setup: cluster replication must register a replica slice")
			}
			if ent.Version == 0 || ent.NextFree == 0 || ent.Sharers.Count() == 0 {
				t.Fatalf("setup: entry %+v was not exercised", *ent)
			}

			e.Advance(tm)
			e.evictHomeLine(home, la, tm)
			got := e.newDirEntry()
			if got != ent {
				t.Fatal("the next birth must reuse the entry just recycled")
			}
			if got.Classifier != clf {
				t.Fatal("the recycled entry must keep its own policy state")
			}
			a, b := *got, *fresh
			if len(a.ReplicaSlices) != 0 || len(b.ReplicaSlices) != 0 {
				t.Fatalf("ReplicaSlices recycled %v, fresh %v", a.ReplicaSlices, b.ReplicaSlices)
			}
			a.ReplicaSlices, b.ReplicaSlices = nil, nil
			a.Classifier, b.Classifier = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("recycled entry %+v, fresh entry %+v", a, b)
			}

			if st, ok := clf.(*ehcState); ok {
				if st.homeReads != 0 {
					t.Fatalf("recycled EHC counter = %d, want 0", st.homeReads)
				}
				return
			}
			if !sameModes(e.classifierOf(got), e.classifierOf(fresh), cfg.Cores) {
				t.Fatal("recycled classifier differs from a fresh one")
			}
		})
	}
}

// sameModes reports whether a and b agree on ModeOf and Tracked for every
// core.
func sameModes(a, b coreClassifier, cores int) bool {
	for c := mem.CoreID(0); c < mem.CoreID(cores); c++ {
		if a.ModeOf(c) != b.ModeOf(c) || a.Tracked(c) != b.Tracked(c) {
			return false
		}
	}
	return true
}

// TestHomeRecordSize: a home record fills the 128-byte allocation size
// class exactly, so each record is two whole, aligned host cache lines.
func TestHomeRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(homeRecord{}); n != 128 {
		t.Fatalf("homeRecord is %d bytes, want 128", n)
	}
}

// TestLineLayout pins the host footprint of the two line types. An 8-way
// LLC set of 56-byte lines spans 7 host cache lines (9 at the earlier 72
// bytes), and every set scan, replica probe and victim selection walks
// one; the L1 line keeps its 40 bytes because the home back-handle fills
// padding l1Meta already had. A field added to llcMeta or l1Meta that
// grows either line must earn its host cache misses.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(cacheLine{}); n != 56 {
		t.Errorf("LLC line is %d bytes, want 56", n)
	}
	if n := unsafe.Sizeof(l1Line{}); n != 40 {
		t.Errorf("L1 line is %d bytes, want 40", n)
	}
}

// TestHomeBirthAllocs pins the allocation cost of a directory-entry birth
// under RT-3: one allocation (the home record, classifier inline) when the
// free list is empty, none when it reuses a recycled record.
func TestHomeBirthAllocs(t *testing.T) {
	e := New(config.Small(), Options{Scheme: LocalityAware})
	const base = mem.LineAddr(0x4000) // page-aligned: one private page of core 0
	var tm mem.Cycles
	next := 0
	fill := func() {
		res := rd(e, 0, tm, base+mem.LineAddr(next))
		if res.Miss != stats.OffChipMiss {
			t.Errorf("access %d = %v, want an off-chip fill", next, res.Miss)
		}
		tm = res.Done
		next++
	}
	const runs = 20
	if got := testing.AllocsPerRun(runs, fill); got != 1 {
		t.Fatalf("birth with an empty free list: %v allocs, want 1", got)
	}
	if len(e.entFree) != 0 {
		t.Fatal("setup: the free list must have stayed empty")
	}

	// Retire every line filled so far: their records go to the free list.
	e.Advance(tm)
	for i := 0; i < next; i++ {
		e.evictHomeLine(0, base+mem.LineAddr(i), tm)
	}
	if len(e.entFree) != next {
		t.Fatalf("free list holds %d records, want %d", len(e.entFree), next)
	}
	next = 0
	if got := testing.AllocsPerRun(runs, fill); got != 0 {
		t.Fatalf("birth from the free list: %v allocs, want 0", got)
	}
}
