package directory

import (
	"testing"
	"testing/quick"
	"unsafe"

	"lard/internal/mem"
)

// entry returns a fresh entry and an add function for it with p ACKwise
// pointers.
func entry(p int) (*Entry, func(mem.CoreID)) {
	e := &Entry{}
	return e, func(c mem.CoreID) { e.AddSharer(c, p) }
}

func TestSharerSetBasics(t *testing.T) {
	e, add := entry(4)
	s := &e.Sharers
	if s.Count() != 0 || s.Has(3) || e.Overflowed() {
		t.Fatal("fresh set must be empty and precise")
	}
	add(3)
	add(7)
	if !s.Has(3) || !s.Has(7) || s.Has(5) || s.Count() != 2 {
		t.Fatalf("membership wrong: %v", s.Sharers())
	}
	add(3) // duplicate
	if s.Count() != 2 {
		t.Fatal("duplicate Add must be a no-op")
	}
	s.Remove(3)
	if s.Has(3) || s.Count() != 1 {
		t.Fatal("Remove failed")
	}
	s.Remove(99) // absent
	if s.Count() != 1 {
		t.Fatal("Remove of absent core must be a no-op")
	}
}

func TestSharerSetOverflow(t *testing.T) {
	e, add := entry(4)
	s := &e.Sharers
	for c := mem.CoreID(0); c < 4; c++ {
		add(c)
	}
	if e.Overflowed() {
		t.Fatal("4 sharers must fit 4 pointers")
	}
	add(4) // fifth sharer: ACKwise-4 overflows to broadcast mode
	if !e.Overflowed() {
		t.Fatal("5th sharer must overflow ACKwise-4")
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	// Functional precision is kept by the bitset.
	for c := mem.CoreID(0); c < 5; c++ {
		if !s.Has(c) {
			t.Fatalf("core %d lost on overflow", c)
		}
	}
	if s.Has(9) {
		t.Fatal("non-member reported after overflow")
	}
	// Draining below p keeps broadcast mode (hardware cannot recover IDs).
	for c := mem.CoreID(0); c < 4; c++ {
		s.Remove(c)
	}
	if !e.Overflowed() || s.Count() != 1 || !s.Has(4) {
		t.Fatal("drained overflow set must stay in broadcast mode with count 1")
	}
}

func TestFullMapNeverOverflows(t *testing.T) {
	e, add := entry(0)
	for c := mem.CoreID(0); c < 64; c++ {
		add(c)
	}
	if e.Overflowed() {
		t.Fatal("full-map set must never overflow")
	}
	if e.Sharers.Count() != 64 {
		t.Fatalf("Count = %d", e.Sharers.Count())
	}
}

func TestSharersSorted(t *testing.T) {
	e, add := entry(4)
	for _, c := range []mem.CoreID{9, 2, 5} {
		add(c)
	}
	got := e.Sharers.Sharers()
	want := []mem.CoreID{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sharers = %v, want %v", got, want)
		}
	}
}

func TestSharersSortedAfterOverflow(t *testing.T) {
	e, add := entry(2)
	for _, c := range []mem.CoreID{9, 2, 5, 7} {
		add(c)
	}
	got := e.Sharers.Sharers()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Sharers not sorted: %v", got)
		}
	}
}

func TestClear(t *testing.T) {
	e, add := entry(2)
	for _, c := range []mem.CoreID{1, 2, 3} {
		add(c)
	}
	e.SetOwner(2)
	e.ClearSharers()
	if e.Sharers.Count() != 0 || e.Overflowed() || e.Sharers.Has(1) {
		t.Fatal("ClearSharers must fully reset the set")
	}
	if o, ok := e.Owner(); !ok || o != 2 {
		t.Fatal("ClearSharers must leave the owner to ClearOwner")
	}
}

// TestSetMatchesMapModel: under arbitrary add/remove sequences the sharer
// set must agree with a plain map, across pointer counts including overflow.
func TestSetMatchesMapModel(t *testing.T) {
	f := func(ops []uint8, p uint8) bool {
		e, add := entry(int(p % 6)) // 0..5 pointers
		s := &e.Sharers
		model := map[mem.CoreID]bool{}
		for _, op := range ops {
			c := mem.CoreID(op % 32)
			if op&0x80 != 0 {
				s.Remove(c)
				delete(model, c)
			} else {
				add(c)
				model[c] = true
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for c := mem.CoreID(0); c < 32; c++ {
			if s.Has(c) != model[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryOwner(t *testing.T) {
	var e Entry
	if _, ok := e.Owner(); ok {
		t.Fatal("fresh entry must have no owner")
	}
	for _, c := range []mem.CoreID{0, 5, MaxCores - 1} {
		e.AddSharer(c, 1)
		e.SetOwner(c)
		if o, ok := e.Owner(); !ok || o != c || !e.OwnedBy(c) || e.OwnedBy(c^1) {
			t.Fatalf("SetOwner(%d): Owner() = %d, %v", c, o, ok)
		}
	}
	if !e.Overflowed() {
		t.Fatal("setup: three sharers must overflow ACKwise-1")
	}
	e.ClearOwner()
	if _, ok := e.Owner(); ok || e.OwnedBy(MaxCores-1) {
		t.Fatal("ClearOwner failed")
	}
	if !e.Overflowed() {
		t.Fatal("owner changes must keep broadcast mode")
	}
}

func TestEntryReplicaSlices(t *testing.T) {
	var r ReplicaSlices
	r.Add(3)
	r.Add(7)
	r.Add(3) // duplicate
	if len(r) != 2 {
		t.Fatalf("ReplicaSlices = %v", r)
	}
	if !r.Has(3) || !r.Has(7) || r.Has(4) {
		t.Fatal("Has wrong")
	}
	r.Remove(3)
	if r.Has(3) || len(r) != 1 {
		t.Fatal("Remove failed")
	}
	r.Remove(99) // absent: no-op
	if len(r) != 1 {
		t.Fatal("absent removal must be a no-op")
	}
}

func TestEntryVersionStartsZero(t *testing.T) {
	var e Entry
	if e.Version != 0 || e.NextFree != 0 {
		t.Fatal("fresh entry version and stamp must be 0")
	}
}

// TestEntryHotFieldsShareACacheLine: an entry is 32 bytes, so it and the
// fields an LLC way keeps beside it share one 64-byte host cache line.
func TestEntryHotFieldsShareACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Fatalf("Entry is %d bytes, want 32", n)
	}
}

// TestSharerSetPointerClamp: a pointer count at or above MaxCores behaves
// like the full map and never overflows.
func TestSharerSetPointerClamp(t *testing.T) {
	for _, p := range []int{MaxCores, MaxCores + 1, 1000} {
		e, add := entry(p)
		for c := mem.CoreID(0); c < MaxCores; c++ {
			add(c)
		}
		if e.Overflowed() || e.Sharers.Count() != MaxCores {
			t.Fatalf("p=%d: overflowed=%v count=%d with every core added", p, e.Overflowed(), e.Sharers.Count())
		}
	}
	e, add := entry(MaxCores - 1)
	for c := mem.CoreID(0); c < MaxCores; c++ {
		add(c)
	}
	if !e.Overflowed() {
		t.Fatalf("p=%d must overflow on the %dth sharer", MaxCores-1, MaxCores)
	}
}
