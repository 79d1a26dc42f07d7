package core

import (
	"math"

	"lard/internal/mem"
)

// limEntry is one slot of the limited locality list (Figure 5): core ID,
// replication mode bit and home-reuse counter, plus the active flag used for
// replacement (§2.2.5).
type limEntry struct {
	core   mem.CoreID
	mode   bool
	reuse  uint8
	active bool
	valid  bool
}

// limitedInline is the number of tracked-core slots a Limited holds in
// place. It covers the paper's default k=3; a larger k (Figure 9 sweeps up
// to 64) keeps its slots in a heap slice instead.
const limitedInline = 4

// Limited is the Limited-k locality classifier (§2.2.5). It keeps locality
// information for at most k cores; other cores are classified by a majority
// vote of the modes of the tracked cores.
//
// It is a value type so the locality list can live inside the structure
// that holds the directory entry, as it does in hardware (§2.4.1): for
// k <= limitedInline the slots need no allocation of their own. The zero
// value is unusable; Init prepares one. A Limited must not be copied after
// Init.
type Limited struct {
	rt     int32
	k      int32
	inline [limitedInline]limEntry
	// heap holds the slots when k > limitedInline, else nil. A pointer
	// rather than a slice keeps a Limited at 48 bytes, so a home record
	// (80-byte directory entry plus classifier) fills one 128-byte size
	// class, two whole host cache lines.
	heap *[]limEntry
}

// Init makes k a fresh Limited-k classifier for p (p.K >= 1): every core in
// the Initial state of Figure 3.
func (k *Limited) Init(p Params) {
	if p.RT < 1 || p.RT > math.MaxInt32 {
		panic("core: RT must be in 1..MaxInt32")
	}
	*k = Limited{rt: int32(p.RT), k: int32(p.K)}
	if p.K > limitedInline {
		slots := make([]limEntry, p.K)
		k.heap = &slots
	}
}

func newLimited(p Params) *Limited {
	k := &Limited{}
	k.Init(p)
	return k
}

// slots returns the locality list: k entries, valid or free.
func (k *Limited) slots() []limEntry {
	if k.heap != nil {
		return *k.heap
	}
	return k.inline[:k.k]
}

// find returns the entry tracking c, or nil.
func (k *Limited) find(c mem.CoreID) *limEntry {
	es := k.slots()
	for i := range es {
		if es[i].valid && es[i].core == c {
			return &es[i]
		}
	}
	return nil
}

// majority returns the majority vote of the modes of the tracked cores;
// ties (including an empty list) resolve to non-replica, the Initial mode of
// Figure 3.
func (k *Limited) majority() bool {
	replica, valid := 0, 0
	for _, e := range k.slots() {
		if e.valid {
			valid++
			if e.mode {
				replica++
			}
		}
	}
	return replica*2 > valid
}

// acquire returns the entry for c, allocating one if possible:
//  1. an existing entry for c,
//  2. a free (invalid) entry, started in the Initial mode,
//  3. replacement of an inactive sharer, started in the majority-vote mode
//     (the requester's "most probable mode", §2.2.5).
//
// If no replacement candidate exists it returns nil and the caller falls
// back to the majority vote without modifying the list.
func (k *Limited) acquire(c mem.CoreID) *limEntry {
	if e := k.find(c); e != nil {
		e.active = true
		return e
	}
	es := k.slots()
	for i := range es {
		if !es[i].valid {
			es[i] = limEntry{core: c, active: true, valid: true}
			return &es[i]
		}
	}
	for i := range es {
		if !es[i].active {
			es[i] = limEntry{core: c, mode: k.majority(), active: true, valid: true}
			return &es[i]
		}
	}
	return nil
}

// OnReadHome implements Classifier.
func (k *Limited) OnReadHome(c mem.CoreID) bool {
	e := k.acquire(c)
	if e == nil {
		// Untracked: classify by majority vote; no reuse can be accumulated,
		// so a non-replica vote can never be promoted (this is the
		// STREAMCLUSTER pathology discussed in §4.3).
		return k.majority()
	}
	if e.mode {
		return true
	}
	e.reuse = satIncr(e.reuse, int(k.rt))
	if int32(e.reuse) >= k.rt {
		e.mode = true
		return true
	}
	return false
}

// OnWriteHome implements Classifier.
func (k *Limited) OnWriteHome(c mem.CoreID, soleSharer bool) bool {
	e := k.acquire(c)
	if e == nil {
		return k.majority()
	}
	if e.mode {
		return true
	}
	if soleSharer {
		e.reuse = satIncr(e.reuse, int(k.rt))
	} else {
		e.reuse = 1
	}
	if int32(e.reuse) >= k.rt {
		e.mode = true
		return true
	}
	return false
}

// OnOthersReset implements Classifier.
func (k *Limited) OnOthersReset(writer mem.CoreID) {
	es := k.slots()
	for i := range es {
		e := &es[i]
		if e.valid && e.core != writer && !e.mode {
			e.reuse = 0
			e.active = false
		}
	}
}

// OnReplicaGone implements Classifier.
func (k *Limited) OnReplicaGone(c mem.CoreID, replicaReuse uint8, invalidation bool) {
	e := k.find(c)
	if e == nil {
		return // untracked replicas carry no classifier state
	}
	x := int(replicaReuse)
	if invalidation {
		x += int(e.reuse)
	}
	if x < int(k.rt) {
		e.mode = false
	}
	e.reuse = 0
	e.active = false
}

// ModeOf implements Classifier.
func (k *Limited) ModeOf(c mem.CoreID) bool {
	if e := k.find(c); e != nil {
		return e.mode
	}
	return k.majority()
}

// Tracked implements Classifier.
func (k *Limited) Tracked(c mem.CoreID) bool { return k.find(c) != nil }

// Reset implements Classifier.
func (k *Limited) Reset() {
	clear(k.slots())
}
