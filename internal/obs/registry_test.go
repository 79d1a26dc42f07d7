package obs

import "testing"

// TestRegistryEviction pins the bounded registry behind both Tracer and
// Timelines at a bound of two: a new id evicts the oldest finished entry
// before any older open one, the oldest outright when none has finished,
// and putting a known id replaces its value without growing the registry
// or renewing the slot's age.
func TestRegistryEviction(t *testing.T) {
	type entry struct{ done bool }
	r := newRegistry(2, func(e *entry) bool { return e.done })
	has := func(id string) bool { _, ok := r.get(id); return ok }

	r.put("a", &entry{})           // open
	r.put("b", &entry{done: true}) // finished
	r.put("c", &entry{})           // evicts b, the oldest finished, not the older open a
	if has("b") || !has("a") || !has("c") {
		t.Fatalf("after c: a=%v b=%v c=%v, want a and c", has("a"), has("b"), has("c"))
	}

	r.put("d", &entry{}) // nothing finished: evicts a, the oldest outright
	if has("a") || !has("c") || !has("d") {
		t.Fatalf("after d: a=%v c=%v d=%v, want c and d", has("a"), has("c"), has("d"))
	}

	restarted := &entry{}
	r.put("c", restarted) // restart in place: no growth, c stays the oldest
	if v, _ := r.get("c"); v != restarted || r.len() != 2 {
		t.Fatalf("restart of c: value replaced=%v len=%d, want true and 2", v == restarted, r.len())
	}
	r.put("e", &entry{}) // evicts c, whose slot kept its age
	if has("c") || !has("d") || !has("e") || r.len() != 2 {
		t.Fatalf("after e: c=%v d=%v e=%v len=%d, want d and e", has("c"), has("d"), has("e"), r.len())
	}
	if vs := r.values(); len(vs) != 2 {
		t.Fatalf("values = %d entries, want 2", len(vs))
	}
}
