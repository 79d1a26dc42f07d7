package directory

import (
	"reflect"
	"testing"
	"testing/quick"

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
// leak one line's state into another.
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
	e.Reset(2)
	fresh := NewEntry(2)
	if len(e.ReplicaSlices) != 0 {
		t.Fatalf("ReplicaSlices = %v after Reset", e.ReplicaSlices)
	}
	e.ReplicaSlices = nil
	if !reflect.DeepEqual(e, fresh) {
		t.Fatalf("Reset entry %+v, fresh entry %+v", *e, *fresh)
	}
}
