// Package directory implements the sharer-tracking structures of the
// coherence protocol: the ACKwise-p limited directory of the baseline system
// (hardware pointers that degrade to a broadcast-with-known-count on
// overflow) and a full-map option. Directory entries live inside the LLC tag
// array of the home slice ("in-cache" organization, §2.1): an Entry is a
// 32-byte value the home line's way holds in place, so it is born zeroed
// with the way and dies with it. Eviction of the home line destroys the
// entry, which the engine handles by invalidating every cached copy
// (inclusive LLC).
//
// The locality classifier of the paper is deliberately NOT part of this
// package: the paper stresses that reuse tracking is decoupled from sharer
// tracking (§2.2.5). An Entry only keeps a few opaque bytes (Local) for the
// replication policy, as the hardware keeps the locality list in the same
// directory entry (§2.4.1); internal/core and the policies interpret them.
// The cluster-replica set (ReplicaSlices) does not fit a way; the engine
// keeps it beside the line.
package directory

import (
	"fmt"
	"math/bits"

	"lard/internal/mem"
)

// MaxCores is the largest core count the sharer bitset can track. The
// simulated machine presets top out at 64 tiles (the paper's target), which
// lets membership live in one machine word: Has/Add/Remove are single bit
// operations and iteration is allocation-free, where the previous
// representation paid a pointer-slice scan in precise mode and a heap map in
// broadcast mode.
const MaxCores = 64

// SharerSet is the membership of a directory entry: the cores whose local
// cache hierarchy (L1 caches plus, in replication schemes, the local LLC
// slice) may hold a copy of a line, one bit per core. Core ids must be
// below MaxCores. The ACKwise pointer overflow is entry state (see
// Entry.AddSharer), so a set is a single machine word.
type SharerSet struct {
	bits uint64
}

// Count returns the number of sharers.
func (s SharerSet) Count() int { return bits.OnesCount64(s.bits) }

// Has reports whether core c is a sharer. In broadcast mode the simulator
// still answers precisely (the bitset keeps exact membership) so functional
// behaviour is exact; hardware would conservatively probe everyone, which is
// what the timing model charges.
func (s SharerSet) Has(c mem.CoreID) bool {
	return s.bits&(1<<uint(c)) != 0
}

// Add inserts core c. Adding a present core is a no-op.
func (s *SharerSet) Add(c mem.CoreID) {
	if c < 0 || c >= MaxCores {
		panic(fmt.Sprintf("directory: core id %d outside the %d-core sharer bitset", c, MaxCores))
	}
	s.bits |= 1 << uint(c)
}

// Remove deletes core c if present.
func (s *SharerSet) Remove(c mem.CoreID) {
	s.bits &^= 1 << uint(c)
}

// Bits returns the membership bitset (bit c set = core c is a sharer).
// Callers iterate a snapshot of it to fan out without allocating; ascending
// bit order matches the sorted order Sharers returns.
func (s SharerSet) Bits() uint64 { return s.bits }

// ForEach calls fn for every sharer, in ascending core order.
func (s SharerSet) ForEach(fn func(c mem.CoreID)) {
	for b := s.bits; b != 0; b &= b - 1 {
		fn(mem.CoreID(bits.TrailingZeros64(b)))
	}
}

// Sharers returns the sharers as a fresh slice sorted ascending. Hot paths
// iterate Bits instead; this remains for tests and diagnostics.
func (s SharerSet) Sharers() []mem.CoreID {
	out := make([]mem.CoreID, 0, s.Count())
	s.ForEach(func(c mem.CoreID) { out = append(out, c) })
	return out
}

// Entry is the directory state of a home LLC line, a 32-byte value with no
// pointers. The zero Entry is a fresh one: no sharers, no owner, precise
// mode, version 0, free at cycle 0.
type Entry struct {
	// Sharers tracks cores with copies (L1 and/or local LLC replica).
	Sharers SharerSet
	// Version counts writes serialized at this home. Every valid copy of the
	// line records the version it read; the single-writer-multiple-reader
	// invariant implies a valid copy always matches the home version. The
	// simulator checks this on every read.
	Version uint64
	// NextFree is the cycle at which the home entry is free for the next
	// request: requests to the line serialize on it, which is the paper's
	// "LLC home waiting time". The coherence engine sets it at the end of
	// every home transaction.
	NextFree mem.Cycles
	// state packs the E/M owner's core id (low six bits) with the
	// has-owner and ACKwise-overflow flags.
	state uint8
	// Local holds per-line state of the replication policy, which the
	// directory never reads: the paper's Limited-3 locality list
	// (core.Inline), or a scheme's own counter.
	Local [LocalBytes]byte
}

// LocalBytes is the size of Entry.Local: what is left of a 32-byte entry.
const LocalBytes = 7

const (
	ownerMask   = MaxCores - 1
	hasOwnerBit = 1 << 6
	overflowBit = 1 << 7
)

// AddSharer inserts core c into an entry with p ACKwise pointers (0 for a
// full-map directory). A p-pointer entry switches to broadcast mode when a
// new sharer arrives with all p pointers occupied; the mode is sticky, as in
// hardware, until ClearSharers. Only the invalidation fan-out reads it (the
// bitset stays functionally precise), so timing and energy pay broadcast.
// A p at or above MaxCores behaves as a full map: the set never holds more
// than MaxCores sharers.
func (e *Entry) AddSharer(c mem.CoreID, p int) {
	if e.Sharers.Has(c) {
		return
	}
	if p != 0 && e.Sharers.Count() >= p {
		e.state |= overflowBit
	}
	e.Sharers.Add(c)
}

// Overflowed reports whether the entry is in broadcast mode. When a
// broadcast-mode set drains to at most p sharers it stays in broadcast mode
// (hardware cannot recover the identities).
func (e *Entry) Overflowed() bool { return e.state&overflowBit != 0 }

// ClearSharers empties the sharer set and leaves broadcast mode.
func (e *Entry) ClearSharers() {
	e.Sharers = SharerSet{}
	e.state &^= overflowBit
}

// Owner returns the core holding the line in E or M state, and whether
// there is one. The owner is also a member of Sharers.
func (e *Entry) Owner() (mem.CoreID, bool) {
	return mem.CoreID(e.state & ownerMask), e.state&hasOwnerBit != 0
}

// OwnedBy reports whether core c holds the line in E or M state.
func (e *Entry) OwnedBy(c mem.CoreID) bool {
	o, ok := e.Owner()
	return ok && o == c
}

// SetOwner records c as the E/M owner.
func (e *Entry) SetOwner(c mem.CoreID) {
	e.state = e.state&overflowBit | hasOwnerBit | uint8(c)&ownerMask
}

// ClearOwner removes owner status.
func (e *Entry) ClearOwner() { e.state &^= hasOwnerBit | ownerMask }

// ReplicaSlices tracks, for cluster-level replication (§2.3.4), the LLC
// slices (other than L1 sharers' own) currently holding a replica of a
// line, in insertion order with swap-delete. The order is part of the
// simulated outcome: invalidations visit the slices in it. For cluster
// size 1 the replica slice equals the requesting core and is covered by
// Sharers; the set stays empty.
type ReplicaSlices []mem.CoreID

// Add records slice s as holding a cluster replica.
func (r *ReplicaSlices) Add(s mem.CoreID) {
	if !r.Has(s) {
		*r = append(*r, s)
	}
}

// Remove removes slice s from the set.
func (r *ReplicaSlices) Remove(s mem.CoreID) {
	rs := *r
	for i, x := range rs {
		if x == s {
			rs[i] = rs[len(rs)-1]
			*r = rs[:len(rs)-1]
			return
		}
	}
}

// Has reports whether slice s holds a cluster replica.
func (r ReplicaSlices) Has(s mem.CoreID) bool {
	for _, x := range r {
		if x == s {
			return true
		}
	}
	return false
}
