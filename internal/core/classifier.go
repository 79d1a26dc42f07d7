// Package core implements the paper's primary contribution: the low-overhead
// in-hardware run-time classifier that tracks the reuse of each cache line at
// the LLC and decides, per requesting core, whether the line may be
// replicated in that core's local LLC slice (§2.2).
//
// Two implementations are provided, mirroring the paper:
//
//   - Complete: a replication-mode bit and a home-reuse saturating counter for
//     every core in the system (Figure 4).
//   - Limited-k: the same information for only k cores, with inactive-sharer
//     replacement and majority-vote initialization of untracked cores
//     (Figure 5, §2.2.5). Limited-3 is the paper's default. For k <= InlineK
//     the list is a 7-byte value (Inline) that lives in the line's directory
//     entry; one Limited per run classifies any such list it is bound to.
//
// The classifier is decoupled from the sharer-tracking directory (ACKwise
// pointers serve coherence; the locality list serves classification), which
// is the property that lets the protocol scale (§2.2.5).
//
// State machine (Figure 3), per (line, core):
//
//	Initial: non-replica mode, home reuse 0.
//	Non-replica, read/write at home: home reuse counter advances; reaching
//	  RT promotes the core to replica mode and a replica is created.
//	Replica, on replica eviction:   stay replica iff replica reuse >= RT.
//	Replica, on replica invalidation: stay replica iff replica+home reuse
//	  >= RT (the sum is the total reuse between successive writes).
//	Demotion returns the core to non-replica mode with home reuse 0.
package core

import "lard/internal/mem"

// Params are the classifier parameters shared by all lines of a run.
type Params struct {
	// RT is the replication threshold: the reuse at or above which a replica
	// is created or retained (Table 1 default: 3).
	RT int
	// Cores is the number of cores in the system.
	Cores int
	// K is the number of tracked cores of the Limited-k classifier;
	// 0 selects the Complete classifier.
	K int
}

// Classifier is the per-cache-line locality classifier consulted by the home
// directory. Implementations are not safe for concurrent use (the simulator
// is single-threaded).
type Classifier interface {
	// OnReadHome records a read by core c serviced at the home location and
	// reports whether an LLC replica should be granted to c (§2.2.1).
	OnReadHome(c mem.CoreID) bool

	// OnWriteHome records a write by core c serialized at the home after all
	// invalidation acknowledgements have been processed. soleSharer reports
	// whether c was the only sharer (replica or non-replica) at the time of
	// the write, which is what permits migratory-data promotion (§2.2.2).
	// It reports whether an (Exclusive/Modified-state) replica should be
	// granted to c.
	OnWriteHome(c mem.CoreID, soleSharer bool) bool

	// OnOthersReset records that core writer performed a write: every other
	// tracked core in non-replica mode has not shown enough reuse to be
	// promoted, so its home-reuse counter is reset to zero and it becomes
	// inactive (§2.2.2). Replica-mode cores are handled separately through
	// OnReplicaGone as their copies are invalidated.
	OnOthersReset(writer mem.CoreID)

	// OnReplicaGone records the eviction (invalidation=false) or
	// invalidation (invalidation=true) of core c's LLC replica, carrying the
	// replica-reuse counter communicated with the acknowledgement (§2.2.3).
	// The core keeps replica status iff the observed reuse reaches RT; its
	// home-reuse counter is reset for the next round of classification, and
	// the core becomes inactive.
	OnReplicaGone(c mem.CoreID, replicaReuse uint8, invalidation bool)

	// ModeOf reports the current replication mode the classifier would apply
	// to core c (tracked mode, or the majority vote for untracked cores).
	ModeOf(c mem.CoreID) bool

	// Tracked reports whether core c currently has a dedicated entry.
	Tracked(c mem.CoreID) bool

	// Reset returns the classifier to the Initial state of Figure 3 (all
	// cores in non-replica mode, no reuse), making it indistinguishable
	// from a freshly constructed one — which lets an engine reuse the
	// classifier of a dead line for a new one instead of allocating.
	Reset()
}

// New returns a classifier for one cache line according to p: Complete when
// p.K == 0, Limited-k otherwise.
func New(p Params) Classifier {
	if p.RT < 1 {
		panic("core: RT must be >= 1")
	}
	if p.K == 0 {
		return newComplete(p)
	}
	return newLimited(p)
}

// satIncr increments a counter saturating at RT (the decision only needs
// "reached RT"; hardware sizes the counter accordingly, §2.4.1).
func satIncr(v uint8, rt int) uint8 {
	if int(v) >= rt {
		return v
	}
	return v + 1
}
