package core

import (
	"fmt"

	"lard/internal/mem"
)

// A locality-list slot (Figure 5) is two bytes: an id byte holding the core
// ID in its low six bits (core IDs stay below 64, the sharer bitset's
// limit) plus the replication-mode and active flags (§2.2.5), then the
// home-reuse counter. The valid slots are a prefix of the
// list: acquire fills the first free slot, and only a reset frees slots, so
// one count replaces a valid bit per slot.
const (
	slotBytes  = 2
	slotCore   = 0x3f
	slotMode   = 1 << 6
	slotActive = 1 << 7
)

// InlineK is the largest k whose locality list fits an Inline. It covers
// the paper's default k = 3.
const InlineK = 3

// Inline is a Limited-k locality list with k <= InlineK, held by value: the
// count of valid slots, then the slots. Seven bytes, no pointers, so the
// list sits in the directory entry's Local bytes inside the LLC way, as it
// does in hardware (§2.4.1). The zero value is the Initial state of
// Figure 3. A Limited made by NewInline classifies it after Bind.
type Inline [1 + InlineK*slotBytes]byte

// Limited is the Limited-k locality classifier (§2.2.5). It keeps locality
// information for at most k cores; other cores are classified by a majority
// vote of the modes of the tracked cores.
//
// The list it runs over is buf: the valid-slot count, then k slots. New
// gives a Limited a list of its own; NewInline makes one with none, to be
// bound to a line's Inline list before each use, so RT and k live once per
// run instead of once per line.
type Limited struct {
	rt  int
	k   int
	buf []byte
}

func newLimited(p Params) *Limited {
	return &Limited{rt: p.RT, k: p.K, buf: make([]byte, 1+p.K*slotBytes)}
}

// NewInline returns a Limited-k classifier for p (1 <= p.K <= InlineK)
// with no list of its own: Bind must point it at an Inline list before
// each use.
func NewInline(p Params) *Limited {
	if p.RT < 1 || p.K < 1 || p.K > InlineK {
		panic(fmt.Sprintf("core: inline Limited-k needs RT >= 1 and 1 <= k <= %d, got RT %d, k %d", InlineK, p.RT, p.K))
	}
	return &Limited{rt: p.RT, k: p.K}
}

// Bind points k at list l and returns k: its decisions read and update l
// until the next Bind.
func (k *Limited) Bind(l *Inline) *Limited {
	k.buf = l[:1+k.k*slotBytes]
	return k
}

// n returns the number of valid slots.
func (k *Limited) n() int { return int(k.buf[0]) }

// id and reuse return slot i's id byte and home-reuse counter.
func (k *Limited) id(i int) *byte    { return &k.buf[1+i*slotBytes] }
func (k *Limited) reuse(i int) *byte { return &k.buf[2+i*slotBytes] }

// find returns the slot tracking c, or -1.
func (k *Limited) find(c mem.CoreID) int {
	for i := 0; i < k.n(); i++ {
		if mem.CoreID(*k.id(i)&slotCore) == c {
			return i
		}
	}
	return -1
}

// mode reports slot i's replication mode.
func (k *Limited) mode(i int) bool { return *k.id(i)&slotMode != 0 }

// setMode sets slot i's replication mode.
func (k *Limited) setMode(i int, m bool) {
	if m {
		*k.id(i) |= slotMode
	} else {
		*k.id(i) &^= slotMode
	}
}

// majority returns the majority vote of the modes of the tracked cores;
// ties (including an empty list) resolve to non-replica, the Initial mode of
// Figure 3.
func (k *Limited) majority() bool {
	replica := 0
	for i := 0; i < k.n(); i++ {
		if k.mode(i) {
			replica++
		}
	}
	return replica*2 > k.n()
}

// fill makes slot i track c, active, with home reuse 0 and mode m.
func (k *Limited) fill(i int, c mem.CoreID, m bool) {
	id := uint8(c)&slotCore | slotActive
	if m {
		id |= slotMode
	}
	*k.id(i) = id
	*k.reuse(i) = 0
}

// acquire returns the slot for c, allocating one if possible:
//  1. an existing slot for c,
//  2. a free slot, started in the Initial mode,
//  3. replacement of an inactive sharer, started in the majority-vote mode
//     (the requester's "most probable mode", §2.2.5).
//
// If no replacement candidate exists it returns -1 and the caller falls
// back to the majority vote without modifying the list.
func (k *Limited) acquire(c mem.CoreID) int {
	if i := k.find(c); i >= 0 {
		*k.id(i) |= slotActive
		return i
	}
	if n := k.n(); n < k.k {
		k.buf[0]++
		k.fill(n, c, false)
		return n
	}
	for i := 0; i < k.k; i++ {
		if *k.id(i)&slotActive == 0 {
			k.fill(i, c, k.majority())
			return i
		}
	}
	return -1
}

// promote advances slot i's home reuse to v and promotes it at RT.
func (k *Limited) promote(i int, v uint8) bool {
	*k.reuse(i) = v
	if int(v) >= k.rt {
		k.setMode(i, true)
		return true
	}
	return false
}

// OnReadHome implements Classifier.
func (k *Limited) OnReadHome(c mem.CoreID) bool {
	i := k.acquire(c)
	if i < 0 {
		// Untracked: classify by majority vote; no reuse can be accumulated,
		// so a non-replica vote can never be promoted (this is the
		// STREAMCLUSTER pathology discussed in §4.3).
		return k.majority()
	}
	if k.mode(i) {
		return true
	}
	return k.promote(i, satIncr(*k.reuse(i), k.rt))
}

// OnWriteHome implements Classifier.
func (k *Limited) OnWriteHome(c mem.CoreID, soleSharer bool) bool {
	i := k.acquire(c)
	if i < 0 {
		return k.majority()
	}
	if k.mode(i) {
		return true
	}
	v := uint8(1)
	if soleSharer {
		v = satIncr(*k.reuse(i), k.rt)
	}
	return k.promote(i, v)
}

// OnOthersReset implements Classifier.
func (k *Limited) OnOthersReset(writer mem.CoreID) {
	for i := 0; i < k.n(); i++ {
		if id := *k.id(i); mem.CoreID(id&slotCore) != writer && id&slotMode == 0 {
			*k.reuse(i) = 0
			*k.id(i) = id &^ slotActive
		}
	}
}

// OnReplicaGone implements Classifier.
func (k *Limited) OnReplicaGone(c mem.CoreID, replicaReuse uint8, invalidation bool) {
	i := k.find(c)
	if i < 0 {
		return // untracked replicas carry no classifier state
	}
	x := int(replicaReuse)
	if invalidation {
		x += int(*k.reuse(i))
	}
	if x < k.rt {
		k.setMode(i, false)
	}
	*k.reuse(i) = 0
	*k.id(i) &^= slotActive
}

// ModeOf implements Classifier.
func (k *Limited) ModeOf(c mem.CoreID) bool {
	if i := k.find(c); i >= 0 {
		return k.mode(i)
	}
	return k.majority()
}

// Tracked implements Classifier.
func (k *Limited) Tracked(c mem.CoreID) bool { return k.find(c) >= 0 }

// Reset implements Classifier.
func (k *Limited) Reset() {
	clear(k.buf)
}
