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
		if l := e.tiles[s].llc.Lookup(la); l != nil && !l.Meta.home() {
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

// TestRecycledEntryMatchesFresh: when a way has just been vacated by an
// exercised home line, the home line filled into it starts with a fresh
// directory entry and Initial-state policy state — for every Figure-9
// Limited-k size (inline and in side records), the Complete classifier,
// cluster replication and EHC's hit counter. A side record is reused
// with the way, reset.
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
			e := New(cfg, Options{Scheme: tc.scheme, CheckInvariants: true})
			home := e.interleave(la)
			llc := e.tiles[home].llc
			// la2 shares la's home slice and set, in a page of its own.
			la2 := la + mem.LineAddr(cfg.Cores)
			for llc.SetOf(la2) != llc.SetOf(la) {
				la2 += mem.LineAddr(cfg.Cores)
			}
			sharedLine(e, la2)
			tm := driveHomeLine(t, e, la)

			idx := e.homeIndex(home, la)
			m := llc.At(idx).Meta
			side := tc.k == 0 || tc.k > core.InlineK || tc.cluster > 1
			if e.sideRecords != side {
				t.Fatalf("side records = %v, want %v", e.sideRecords, side)
			}
			rt, _ := e.policy.(*rtPolicy)
			if rt != nil && sameModes(rt.classifier(&m), core.New(rt.params), cfg.Cores) {
				t.Fatal("setup: the classifier never left the Initial state")
			}
			if tc.scheme == ExpectedHitCount && m.dir.Local[0] == 0 {
				t.Fatal("setup: the EHC counter never advanced")
			}
			if tc.cluster > 1 && len(*e.replicaSlices(&m)) == 0 {
				t.Fatal("setup: cluster replication must register a replica slice")
			}
			if m.dir.Version == 0 || m.dir.NextFree == 0 || m.dir.Sharers.Count() == 0 {
				t.Fatalf("setup: entry %+v was not exercised", m.dir)
			}

			e.Advance(tm)
			e.evictHomeLine(home, la, tm)
			got := e.insertHomeLine(0, home, Op{Type: mem.Load, Line: la2, Class: mem.ClassSharedRW}, tm)
			if got != idx {
				t.Fatalf("setup: the fill took way index %d, not the vacated %d", got, idx)
			}
			fresh := llcMeta{flags: lineHome, class: mem.ClassSharedRW}
			if side {
				if llc.At(got).Meta.link != m.link {
					t.Fatal("the next birth must reuse the side record just freed")
				}
				fresh.link = m.link
				if n := len(*e.replicaSlices(&fresh)); n != 0 {
					t.Fatalf("the reused side record holds %d replica slices", n)
				}
			}
			if gm := llc.At(got).Meta; gm != fresh {
				t.Fatalf("line born in a vacated way %+v, fresh line %+v", gm, fresh)
			}
			if rt != nil && !sameModes(rt.classifier(&fresh), core.New(rt.params), cfg.Cores) {
				t.Fatal("the new line's classifier differs from a fresh one")
			}
		})
	}
}

// sameModes reports whether a and b agree on ModeOf and Tracked for every
// core.
func sameModes(a, b core.Classifier, cores int) bool {
	for c := mem.CoreID(0); c < mem.CoreID(cores); c++ {
		if a.ModeOf(c) != b.ModeOf(c) || a.Tracked(c) != b.Tracked(c) {
			return false
		}
	}
	return true
}

// TestLineLayout pins the host footprint of the two line types. An LLC
// line is 64 bytes, one host cache line: a home line holds its whole
// directory entry and the policy's inline state, so a home access touches
// no other memory. Large slice arrays are page-aligned, so every way is
// one aligned host line, and an 8-way set spans 8. The metadata holds no
// Go pointer, so the garbage collector never scans the LLC arrays. An L1
// line is 32 bytes, two to a host line, so a 4-way set spans two aligned
// host lines. A field added to llcMeta or l1Meta that grows either line
// must earn its host cache misses.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(cacheLine{}); n != 64 {
		t.Errorf("LLC line is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(l1Line{}); n != 32 {
		t.Errorf("L1 line is %d bytes, want 32", n)
	}
	if p := pointerPath(reflect.TypeOf(llcMeta{}), "llcMeta"); p != "" {
		t.Errorf("LLC metadata holds a pointer at %s", p)
	}
}

// pointerPath returns the path to the first pointer-holding field of t,
// or "" when t holds none.
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerPath(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path
	}
}

// TestHomeBirthAllocs pins the allocation cost of a home-line birth. A
// scheme whose per-line state fits the way allocates nothing per off-chip
// fill. Under the Complete classifier and k = 5 each live home line has
// one side record, and a birth into a dead line's record allocates
// nothing.
func TestHomeBirthAllocs(t *testing.T) {
	cases := []struct {
		name   string
		scheme Scheme
		k      int
	}{
		{"S-NUCA", SNUCA, 3},
		{"R-NUCA", RNUCA, 3},
		{"VR", VR, 3},
		{"ASR", ASR, 3},
		{"EHC", ExpectedHitCount, 3},
		{"RT/k=3", LocalityAware, 3},
		{"RT/k=5", LocalityAware, 5},
		{"RT/complete", LocalityAware, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Small()
			cfg.ClassifierK = tc.k
			e := New(cfg, Options{Scheme: tc.scheme, ASRLevel: 1})
			// Every line of one page, homed at slice 0: a private page of
			// core 0 under R-NUCA placement, interleaved to slice 0 else.
			const base = mem.LineAddr(0x4000)
			var tm mem.Cycles
			next := 0
			fill := func() {
				la := base + mem.LineAddr(next*cfg.Cores)
				if e.rnucaPlacement {
					la = base + mem.LineAddr(next)
				}
				res := rd(e, 0, tm, la)
				if res.Miss != stats.OffChipMiss {
					t.Errorf("access %d = %v, want an off-chip fill", next, res.Miss)
				}
				tm = res.Done
				next++
			}
			fill() // the page's first touch records it in the page table
			const runs = 20
			allocs := testing.AllocsPerRun(runs, fill)
			if !e.sideRecords {
				if allocs != 0 {
					t.Fatalf("home birth: %v allocs, want 0", allocs)
				}
				return
			}
			if len(e.side) != next || len(e.sideFree) != 0 {
				t.Fatalf("%d home lines hold %d side records (%d free), want one each", next, len(e.side), len(e.sideFree))
			}
			// Retire every line filled so far: their records go free.
			e.Advance(tm)
			for i := 0; i < next; i++ {
				la := base + mem.LineAddr(i*cfg.Cores)
				if e.rnucaPlacement {
					la = base + mem.LineAddr(i)
				}
				e.evictHomeLine(0, la, tm)
			}
			if len(e.sideFree) != next {
				t.Fatalf("%d side records free, want %d", len(e.sideFree), next)
			}
			n := next
			if got := testing.AllocsPerRun(runs, fill); got != 0 {
				t.Fatalf("birth into a dead line's side record: %v allocs, want 0", got)
			}
			if len(e.side) != n {
				t.Fatalf("side table grew to %d records, want %d", len(e.side), n)
			}
		})
	}
}
