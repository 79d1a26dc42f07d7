package directory

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"lard/internal/mem"
)

func TestSharerSetBasics(t *testing.T) {
	s := NewSharerSet(4)
	if s.Count() != 0 || s.Has(3) || s.Overflowed() {
		t.Fatal("fresh set must be empty and precise")
	}
	s.Add(3)
	s.Add(7)
	if !s.Has(3) || !s.Has(7) || s.Has(5) || s.Count() != 2 {
		t.Fatalf("membership wrong: %v", s.Sharers())
	}
	s.Add(3) // duplicate
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
	s := NewSharerSet(4)
	for c := mem.CoreID(0); c < 4; c++ {
		s.Add(c)
	}
	if s.Overflowed() {
		t.Fatal("4 sharers must fit 4 pointers")
	}
	s.Add(4) // fifth sharer: ACKwise-4 overflows to broadcast mode
	if !s.Overflowed() {
		t.Fatal("5th sharer must overflow ACKwise-4")
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	// Functional precision is kept via the shadow map.
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
	if !s.Overflowed() || s.Count() != 1 || !s.Has(4) {
		t.Fatal("drained overflow set must stay in broadcast mode with count 1")
	}
}

func TestFullMapNeverOverflows(t *testing.T) {
	s := NewSharerSet(0)
	for c := mem.CoreID(0); c < 64; c++ {
		s.Add(c)
	}
	if s.Overflowed() {
		t.Fatal("full-map set must never overflow")
	}
	if s.Count() != 64 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestSharersSorted(t *testing.T) {
	s := NewSharerSet(4)
	for _, c := range []mem.CoreID{9, 2, 5} {
		s.Add(c)
	}
	got := s.Sharers()
	want := []mem.CoreID{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sharers = %v, want %v", got, want)
		}
	}
}

func TestSharersSortedAfterOverflow(t *testing.T) {
	s := NewSharerSet(2)
	for _, c := range []mem.CoreID{9, 2, 5, 7} {
		s.Add(c)
	}
	got := s.Sharers()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Sharers not sorted: %v", got)
		}
	}
}

func TestClear(t *testing.T) {
	s := NewSharerSet(2)
	for _, c := range []mem.CoreID{1, 2, 3} {
		s.Add(c)
	}
	s.Clear()
	if s.Count() != 0 || s.Overflowed() || s.Has(1) {
		t.Fatal("Clear must fully reset")
	}
}

// TestSetMatchesMapModel: under arbitrary add/remove sequences the sharer
// set must agree with a plain map, across pointer counts including overflow.
func TestSetMatchesMapModel(t *testing.T) {
	f := func(ops []uint8, p uint8) bool {
		s := NewSharerSet(int(p % 6)) // 0..5 pointers
		model := map[mem.CoreID]bool{}
		for _, op := range ops {
			c := mem.CoreID(op % 32)
			if op&0x80 != 0 {
				s.Remove(c)
				delete(model, c)
			} else {
				s.Add(c)
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
	e := NewEntry(4)
	if e.HasOwner {
		t.Fatal("fresh entry must have no owner")
	}
	e.SetOwner(5)
	if !e.HasOwner || e.Owner != 5 {
		t.Fatal("SetOwner failed")
	}
	e.ClearOwner()
	if e.HasOwner {
		t.Fatal("ClearOwner failed")
	}
}

func TestEntryReplicaSlices(t *testing.T) {
	e := NewEntry(4)
	e.AddReplicaSlice(3)
	e.AddReplicaSlice(7)
	e.AddReplicaSlice(3) // duplicate
	if len(e.ReplicaSlices) != 2 {
		t.Fatalf("ReplicaSlices = %v", e.ReplicaSlices)
	}
	if !e.HasReplicaSlice(3) || !e.HasReplicaSlice(7) || e.HasReplicaSlice(4) {
		t.Fatal("HasReplicaSlice wrong")
	}
	e.RemoveReplicaSlice(3)
	if e.HasReplicaSlice(3) || len(e.ReplicaSlices) != 1 {
		t.Fatal("RemoveReplicaSlice failed")
	}
	e.RemoveReplicaSlice(99) // absent: no-op
	if len(e.ReplicaSlices) != 1 {
		t.Fatal("absent removal must be a no-op")
	}
}

func TestEntryVersionStartsZero(t *testing.T) {
	if NewEntry(4).Version != 0 {
		t.Fatal("fresh entry version must be 0")
	}
}

// TestEntryResetMatchesNew: a recycled entry is indistinguishable from a
// fresh one, the home stamp included, so an engine's free list can never
// leak one line's state into another. Every field of Entry is dirtied
// before the Reset, so a field added later is covered or fails the test.
func TestEntryResetMatchesNew(t *testing.T) {
	e := NewEntry(4)
	for c := mem.CoreID(0); c < 6; c++ {
		e.Sharers.Add(c)
	}
	e.SetOwner(3)
	e.AddReplicaSlice(9)
	e.Classifier = struct{}{}
	e.Version = 7
	e.NextFree = 1234
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s left zero: the test must dirty every Entry field", v.Type().Field(i).Name)
		}
	}
	e.Reset(2)
	fresh := NewEntry(2)
	if len(e.ReplicaSlices) != 0 || cap(e.ReplicaSlices) == 0 {
		t.Fatalf("ReplicaSlices = %v (cap %d) after Reset, want empty with capacity kept", e.ReplicaSlices, cap(e.ReplicaSlices))
	}
	e.ReplicaSlices = nil
	if !reflect.DeepEqual(e, fresh) {
		t.Fatalf("Reset entry %+v, fresh entry %+v", *e, *fresh)
	}
}

// TestEntryHotFieldsShareACacheLine: the fields every home access touches
// lie in the first 64 bytes of the entry, ahead of the classifier reference
// and the cluster-replica set.
func TestEntryHotFieldsShareACacheLine(t *testing.T) {
	var e Entry
	hot := []struct {
		name     string
		off, len uintptr
	}{
		{"Sharers", unsafe.Offsetof(e.Sharers), unsafe.Sizeof(e.Sharers)},
		{"Owner", unsafe.Offsetof(e.Owner), unsafe.Sizeof(e.Owner)},
		{"HasOwner", unsafe.Offsetof(e.HasOwner), unsafe.Sizeof(e.HasOwner)},
		{"Version", unsafe.Offsetof(e.Version), unsafe.Sizeof(e.Version)},
		{"NextFree", unsafe.Offsetof(e.NextFree), unsafe.Sizeof(e.NextFree)},
	}
	for _, f := range hot {
		if f.off+f.len > 64 {
			t.Errorf("%s ends at byte %d, past the first 64-byte line", f.name, f.off+f.len)
		}
		if f.off > unsafe.Offsetof(e.Classifier) || f.off > unsafe.Offsetof(e.ReplicaSlices) {
			t.Errorf("%s lies behind a cold field", f.name)
		}
	}
}

// TestSharerSetPointerClamp: a pointer count at or above MaxCores is stored
// as MaxCores and, like the full map, never overflows.
func TestSharerSetPointerClamp(t *testing.T) {
	for _, p := range []int{MaxCores, MaxCores + 1, 1000} {
		s := NewSharerSet(p)
		if s.Pointers() != MaxCores {
			t.Fatalf("NewSharerSet(%d).Pointers() = %d, want %d", p, s.Pointers(), MaxCores)
		}
		for c := mem.CoreID(0); c < MaxCores; c++ {
			s.Add(c)
		}
		if s.Overflowed() || s.Count() != MaxCores {
			t.Fatalf("p=%d: overflowed=%v count=%d with every core added", p, s.Overflowed(), s.Count())
		}
	}
	s := NewSharerSet(MaxCores - 1)
	for c := mem.CoreID(0); c < MaxCores; c++ {
		s.Add(c)
	}
	if !s.Overflowed() {
		t.Fatalf("p=%d must overflow on the %dth sharer", MaxCores-1, MaxCores)
	}
}
