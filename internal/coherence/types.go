// Package coherence implements the memory-system model of the paper: private
// L1 caches kept coherent with an invalidation-based MESI protocol over an
// ACKwise-p limited directory integrated with the distributed LLC slices
// (§2.1), plus a static table of LLC management schemes (policy.go). The
// five schemes of the paper's evaluation — Static-NUCA, Reactive-NUCA,
// Victim Replication, Adaptive Selective Replication, and the paper's
// locality-aware replication protocol (§2.2) — and the expected-hit-count
// scheme are each one row of that table plus a Policy in their own
// policy_*.go file.
//
// Coherence transactions execute atomically at the home directory with
// timing composed from the network, DRAM and queueing models; requests to the
// same line serialize on the home entry's NextFree cycle, which produces the
// paper's "LLC home waiting time".
package coherence

import (
	"fmt"

	"lard/internal/cache"
	"lard/internal/directory"
	"lard/internal/mem"
	"lard/internal/stats"
)

// Scheme selects the LLC management scheme under evaluation (§3.3).
type Scheme uint8

// LLC management schemes.
const (
	// SNUCA address-interleaves all lines across the LLC slices.
	SNUCA Scheme = iota
	// RNUCA places private pages at the owner's slice, interleaves shared
	// pages, and replicates instructions in one slice per 4-core cluster via
	// rotational interleaving.
	RNUCA
	// VR (Victim Replication) uses the local slice as a victim cache for L1
	// evictions.
	VR
	// ASR (Adaptive Selective Replication) replicates only shared read-only
	// lines on L1 eviction, with a per-run replication probability level.
	ASR
	// LocalityAware is the paper's protocol: replication gated by the
	// run-time locality classifier with threshold RT.
	LocalityAware
	// ExpectedHitCount replicates a line in every remote reader's local
	// slice once its home has serviced RT reads since the last write
	// (after Vakil-Ghahani et al.'s expected-hit-count work).
	ExpectedHitCount
)

// String implements fmt.Stringer, matching the labels of Figures 6-8. The
// names come from the scheme table; unknown ids render a placeholder.
func (s Scheme) String() string {
	if d, ok := Describe(s); ok {
		return d.Name
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Op is one memory reference presented to the engine.
type Op struct {
	// Type is the access type (ifetch/load/store).
	Type mem.AccessType
	// Line is the referenced cache line.
	Line mem.LineAddr
	// Class is the generator's ground-truth data class, used only for
	// statistics (the protocol never sees it).
	Class mem.DataClass
}

// AccessResult reports the outcome of one access.
type AccessResult struct {
	// Done is the cycle at which the access completes (data available for
	// reads, write permission granted for stores).
	Done mem.Cycles
	// Breakdown attributes the access latency to the §3.4 components
	// (Compute and Synchronization are filled in by the simulator).
	Breakdown stats.TimeBreakdown
	// Miss classifies how the access was serviced.
	Miss stats.MissType
}

// l1Meta is the per-line metadata of the private L1 caches: 12 bytes, so
// an L1 line is 32 and a 4-way set spans two aligned host cache lines.
type l1Meta struct {
	// version is the home version of the data held, narrowed to 32 bits:
	// only the SWMR check and VR's victim replica read it. Under
	// CheckInvariants every narrowing and every comparison panics on a
	// home version past 2^32-1 (Engine.l1Version, checkVersion), so the
	// check stays exact.
	version uint32
	// home is the back-handle to the copy's home line.
	home homeRef
	// sharedRO is ASR's sticky classification bit: true while the line has
	// never been written (conveyed by the home on the fill).
	sharedRO bool
	// class is the ground-truth data class (statistics only).
	class mem.DataClass
	// hintCount counts L1 hits for the TLH-LRU replacement policy.
	hintCount uint8
}

// llcMeta is the per-line metadata of the LLC slices: 40 bytes with no
// pointers, so an LLC line is 64 bytes, one host cache line, and the
// garbage collector never scans the LLC arrays. A home line holds its
// whole directory entry here, the policy's inline per-line state included
// (dir.Local). A replica keeps the version it holds in dir.Version and
// leaves the rest of dir zero. The one field whose meaning depends on the
// role is link.
type llcMeta struct {
	// dir is a home line's directory entry.
	dir directory.Entry
	// link is, for a replica, the homeRef of its home line; for a home line
	// of an engine with side records, the index of its side record.
	link uint32
	// flags holds the lineHome, lineEverWritten and lineEverShared bits.
	flags uint8
	// firstCore is the first core to access a home line, used with
	// lineEverShared to detect sharing.
	firstCore uint8
	// replicaReuse is the saturating reuse counter of a replica line
	// (initialized to 1 on creation, incremented per replica hit, §2.2.1).
	replicaReuse uint8
	// class is the ground-truth data class (statistics only).
	class mem.DataClass
}

// llcMeta flag bits.
const (
	// lineHome marks the home copy (it carries the directory entry).
	lineHome = 1 << iota
	// lineEverWritten is the sticky "not read-only" bit used by ASR: on a
	// home line, set by its first write; on a replica, copied from the home.
	lineEverWritten
	// lineEverShared is the home-side sticky "shared" bit used by ASR: set
	// once a second distinct core accesses the line (ASR replicates only
	// lines classified shared AND read-only, §3.3).
	lineEverShared
)

// home reports whether the line is a home copy.
func (m *llcMeta) home() bool { return m.flags&lineHome != 0 }

// everWritten reports the line's lineEverWritten bit.
func (m *llcMeta) everWritten() bool { return m.flags&lineEverWritten != 0 }

// ref returns the back-handle to a replica's home line.
func (m *llcMeta) ref() homeRef { return homeRef(m.link) }

// homeRef is a back-handle to a home line: its LLC slice in the low six
// bits and its index in that slice (cache.Index) above them. L1 copies and
// replicas carry the handle of the home they were filled from, so the
// engine reaches that home without a placement lookup or a set scan. It
// stays exact because the LLC is inclusive: a resident home line never
// changes ways, and disposeHome back-invalidates every L1 copy and replica
// of the line before its way is reused. Six bits hold a slice because the
// sharer bitset caps a machine at 64 cores, and config.Validate bounds a
// slice to the 2^26 lines the rest of the handle can index. Under
// CheckInvariants, homeAt checks every use of a handle against a fresh
// lookup.
type homeRef uint32

const refSliceBits = 6

// newHomeRef returns the handle of the line at index idx of slice.
func newHomeRef(slice mem.CoreID, idx int) homeRef {
	return homeRef(uint32(idx)<<refSliceBits | uint32(slice))
}

// slice returns the home line's LLC slice.
func (r homeRef) slice() mem.CoreID { return mem.CoreID(r & (1<<refSliceBits - 1)) }

// idx returns the home line's index in its slice.
func (r homeRef) idx() int { return int(r >> refSliceBits) }

// tile is one core's slice of the memory system: its private L1 caches and
// its LLC slice.
//
// Requests to a home line serialize on its directory entry's NextFree
// stamp (the paper's "LLC home waiting time"), so the stamp lives and dies
// with the home copy. A home line can leave the slice (eviction, R-NUCA
// flush) while its stamp still lies ahead of the engine's watermark (see
// Engine.Advance); spill keeps such stamps until the line is refilled
// here. Instruction lines under R-NUCA have one home per cluster, so a
// line address is only unique within a slice: the table lives with the
// slice whose entries it outlives. It stays nil until the first spill.
type tile struct {
	id    mem.CoreID
	l1i   *cache.Cache[l1Meta]
	l1d   *cache.Cache[l1Meta]
	llc   *cache.Cache[llcMeta]
	spill map[mem.LineAddr]mem.Cycles
}

// l1For returns the L1 cache serving the access type.
func (t *tile) l1For(a mem.AccessType) *cache.Cache[l1Meta] {
	if a.IsInstr() {
		return t.l1i
	}
	return t.l1d
}
