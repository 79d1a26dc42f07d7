// Package directory implements the sharer-tracking structures of the
// coherence protocol: the ACKwise-p limited directory of the baseline system
// (hardware pointers that degrade to a broadcast-with-known-count on
// overflow) and a full-map option. Directory entries live inside the LLC tag
// array of the home slice ("in-cache" organization, §2.1); eviction of the
// home line therefore destroys the entry, which the engine handles by
// invalidating every cached copy (inclusive LLC).
//
// The locality classifier of the paper is deliberately NOT part of this
// package: the paper stresses that reuse tracking is decoupled from sharer
// tracking (§2.2.5). Entries carry an opaque classifier reference owned by
// internal/core.
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

// SharerSet tracks the cores whose local cache hierarchy (L1 caches plus, in
// replication schemes, the local LLC slice) may hold a copy of a line.
//
// With p > 0 pointers the set is precise until more than p cores share the
// line; after that it switches to broadcast mode and tracks only the count,
// exactly like ACKwise-p: invalidations are broadcast to every core, and the
// known count tells the home how many acknowledgements to expect. p == 0
// selects a full-map directory (always precise).
//
// Membership is a 64-bit set in both modes (the simulator stays functionally
// precise after overflow; timing/energy still pay broadcast), so core ids
// must be below MaxCores.
type SharerSet struct {
	p        int
	bits     uint64
	overflow bool
}

// NewSharerSet returns a sharer set with p ACKwise pointers, or a full-map
// set when p == 0.
func NewSharerSet(p int) SharerSet {
	return SharerSet{p: p}
}

// Pointers returns p (0 for full-map).
func (s *SharerSet) Pointers() int { return s.p }

// Count returns the number of sharers.
func (s *SharerSet) Count() int { return bits.OnesCount64(s.bits) }

// Overflowed reports whether the set is in broadcast mode.
func (s *SharerSet) Overflowed() bool { return s.overflow }

// Has reports whether core c is a sharer. In broadcast mode the simulator
// still answers precisely (the bitset keeps exact membership) so functional
// behaviour is exact; hardware would conservatively probe everyone, which is
// what the timing model charges.
func (s *SharerSet) Has(c mem.CoreID) bool {
	return s.bits&(1<<uint(c)) != 0
}

// Add inserts core c. Adding a present core is a no-op.
func (s *SharerSet) Add(c mem.CoreID) {
	if c < 0 || c >= MaxCores {
		panic(fmt.Sprintf("directory: core id %d outside the %d-core sharer bitset", c, MaxCores))
	}
	m := uint64(1) << uint(c)
	if s.bits&m != 0 {
		return
	}
	// Pointer overflow: a p-pointer set switches to broadcast mode when a
	// new sharer arrives with all p pointers occupied. Sticky, as in
	// hardware.
	if !s.overflow && s.p != 0 && bits.OnesCount64(s.bits) >= s.p {
		s.overflow = true
	}
	s.bits |= m
}

// Remove deletes core c if present. When a broadcast-mode set drains to at
// most p sharers it stays in broadcast mode (hardware cannot recover the
// identities); the simulator keeps precise membership for functional
// behaviour only.
func (s *SharerSet) Remove(c mem.CoreID) {
	s.bits &^= 1 << uint(c)
}

// Bits returns the membership bitset (bit c set = core c is a sharer).
// Callers iterate a snapshot of it to fan out without allocating; ascending
// bit order matches the sorted order Sharers returns.
func (s *SharerSet) Bits() uint64 { return s.bits }

// ForEach calls fn for every sharer, in ascending core order.
func (s *SharerSet) ForEach(fn func(c mem.CoreID)) {
	for b := s.bits; b != 0; b &= b - 1 {
		fn(mem.CoreID(bits.TrailingZeros64(b)))
	}
}

// Sharers returns the sharers as a fresh slice sorted ascending. Hot paths
// iterate Bits instead; this remains for tests and diagnostics.
func (s *SharerSet) Sharers() []mem.CoreID {
	out := make([]mem.CoreID, 0, s.Count())
	s.ForEach(func(c mem.CoreID) { out = append(out, c) })
	return out
}

// Clear empties the set.
func (s *SharerSet) Clear() {
	s.bits = 0
	s.overflow = false
}

// Entry is the directory state attached to a home LLC line.
type Entry struct {
	// Sharers tracks cores with copies (L1 and/or local LLC replica).
	Sharers SharerSet
	// Owner is the core holding the line in E or M state; valid when
	// HasOwner. The owner is also a member of Sharers.
	Owner    mem.CoreID
	HasOwner bool
	// ReplicaSlices tracks, for cluster-level replication (§2.3.4), the LLC
	// slices (other than L1 sharers' own) currently holding a replica. For
	// cluster size 1 the replica slice equals the requesting core and is
	// covered by Sharers; this set stays empty.
	ReplicaSlices []mem.CoreID
	// Classifier is the opaque per-line locality classifier state owned by
	// internal/core; nil for schemes that do not classify.
	Classifier any
	// Version counts writes serialized at this home. Every valid copy of the
	// line records the version it read; the single-writer-multiple-reader
	// invariant implies a valid copy always matches the home version. The
	// simulator checks this on every read (see DESIGN.md §2).
	Version uint64
	// NextFree is the cycle at which the home entry is free for the next
	// request: requests to the line serialize on it, which is the paper's
	// "LLC home waiting time". The coherence engine sets it at the end of
	// every home transaction.
	NextFree mem.Cycles
}

// NewEntry returns an entry with an ACKwise-p sharer set.
func NewEntry(p int) *Entry {
	return &Entry{Sharers: NewSharerSet(p)}
}

// Reset returns the entry to its NewEntry(p) state, retaining the
// ReplicaSlices capacity. It exists so an engine can recycle dead entries
// through a free list instead of allocating one per off-chip fill.
func (e *Entry) Reset(p int) {
	e.Sharers = NewSharerSet(p)
	e.Owner = 0
	e.HasOwner = false
	e.ReplicaSlices = e.ReplicaSlices[:0]
	e.Classifier = nil
	e.Version = 0
	e.NextFree = 0
}

// SetOwner records c as the E/M owner.
func (e *Entry) SetOwner(c mem.CoreID) {
	e.Owner = c
	e.HasOwner = true
}

// ClearOwner removes owner status.
func (e *Entry) ClearOwner() { e.HasOwner = false }

// AddReplicaSlice records slice s as holding a cluster replica.
func (e *Entry) AddReplicaSlice(s mem.CoreID) {
	for _, r := range e.ReplicaSlices {
		if r == s {
			return
		}
	}
	e.ReplicaSlices = append(e.ReplicaSlices, s)
}

// RemoveReplicaSlice removes slice s from the cluster-replica set.
func (e *Entry) RemoveReplicaSlice(s mem.CoreID) {
	for i, r := range e.ReplicaSlices {
		if r == s {
			e.ReplicaSlices[i] = e.ReplicaSlices[len(e.ReplicaSlices)-1]
			e.ReplicaSlices = e.ReplicaSlices[:len(e.ReplicaSlices)-1]
			return
		}
	}
}

// HasReplicaSlice reports whether slice s holds a cluster replica.
func (e *Entry) HasReplicaSlice(s mem.CoreID) bool {
	for _, r := range e.ReplicaSlices {
		if r == s {
			return true
		}
	}
	return false
}
