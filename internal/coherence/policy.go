package coherence

import (
	"slices"
	"strconv"

	"lard/internal/config"
	"lard/internal/core"
	"lard/internal/mem"
)

// Policy is the pluggable replication-policy seam of the engine: every
// per-scheme decision point of the coherence protocol, extracted from the
// shared transaction machinery. The engine owns the invariant-preserving
// mechanics (MESI, the directory, inclusion, timing and energy); a Policy
// decides placement, replication and classifier bookkeeping. Implementations
// are constructed per engine (Descriptor.New) and may keep run-local state.
// Per-line state lives with the home line, whose metadata every per-line
// hook receives: a few bytes inline in its directory entry (dir.Local,
// zero at the line's birth), or a classifier in its side record
// (SideClassifier). Either way it dies with the home line.
//
// Each scheme is one row of the descriptors table; the engine resolves
// opts.Scheme through it at construction. Traits that are the same for
// every run of a scheme are Descriptor fields, not Policy methods.
type Policy interface {
	// ClusterReplication reports whether replicas are shared by a cluster of
	// cores at a designated slice (§2.3.4) and therefore registered at the
	// home's ReplicaSlices set and invalidated hierarchically.
	ClusterReplication() bool

	// ReplicaSlice returns the LLC slice where requester c's replica of la
	// would live: the local slice for local replication, the rotationally-
	// interleaved cluster member under cluster replication. Policies that
	// never replicate return c (the probe is skipped anyway).
	ReplicaSlice(la mem.LineAddr, c mem.CoreID) mem.CoreID

	// ReplicateOnRead decides whether a read serviced at the home should
	// create an LLC replica for requester c. It is invoked on every home
	// read so the policy can observe reuse; the caller suppresses physical
	// replica creation when the requester is the home or the replica slice
	// is the home.
	ReplicateOnRead(m *llcMeta, c mem.CoreID) bool

	// ReplicateOnWrite decides whether a write serialized at the home should
	// grant c a Modified-state replica (migratory sharing, §2.3.1).
	// soleSharer reports whether c was the only sharer before invalidation.
	ReplicateOnWrite(m *llcMeta, c mem.CoreID, soleSharer bool) bool

	// OnWrite records that writer performed a write serialized at the home,
	// after all invalidation acknowledgements were processed (§2.2.2).
	OnWrite(m *llcMeta, writer mem.CoreID)

	// OnReplicaGone records that core c's replica left the LLC, carrying the
	// replica-reuse counter from the acknowledgement; invalidation
	// distinguishes a coherence invalidation from a capacity eviction
	// (Figure 3's two demotion rules).
	OnReplicaGone(m *llcMeta, c mem.CoreID, reuse uint8, invalidation bool)

	// OnClusterReplicaGone is OnReplicaGone for a cluster replica at slice
	// rs: the event applies to every core of the cluster it served.
	OnClusterReplicaGone(m *llcMeta, rs mem.CoreID, reuse uint8, invalidation bool)

	// VictimReplicate gives the policy the L1 victim before it is
	// acknowledged to the home (§2.2.3): returning true means the victim was
	// absorbed into the local slice (VR's victim caching, ASR's selective
	// replication) and disposal is complete.
	VictimReplicate(c mem.CoreID, victim l1Line, t mem.Cycles) bool

	// SideClassifier returns a fresh per-line classifier in the Initial
	// state when the scheme's per-line state does not fit dir.Local, and
	// nil when it does or the scheme keeps none. A non-nil result makes
	// the engine give every home line a side record holding one.
	SideClassifier() core.Classifier
}

// Descriptor describes one LLC management scheme: its stable identity (the
// Scheme id and the name, both part of the content-addressed result keys
// and therefore frozen once released), the traits that are the same for
// every run of the scheme, and its Policy constructor.
type Descriptor struct {
	// Scheme is the stable numeric id, equal to the descriptor's index in
	// the scheme table. It is encoded into result-store content addresses;
	// never renumber a released scheme.
	Scheme Scheme
	// Name is the stable figure label ("S-NUCA", "RT", ...), also the wire
	// Kind string of the lard facade.
	Name string
	// Description is a one-line summary for discovery endpoints.
	Description string
	// UsesReplicas reports whether the scheme ever places replicas in LLC
	// slices (enables the replica probe and eviction paths).
	UsesReplicas bool
	// RNUCAPlacement selects R-NUCA-style homing (private pages at the
	// owner's slice, shared pages interleaved) over pure address
	// interleaving.
	RNUCAPlacement bool
	// InstrClusterHome homes instruction pages via R-NUCA's rotational
	// interleaving within a 4-core cluster rather than interleaving them
	// like shared data. Only consulted under RNUCAPlacement.
	InstrClusterHome bool
	// ConsumeReplicaOnHit makes a replica hit move the line into the
	// requesting L1 and invalidate the LLC copy (Victim Replication's
	// exclusive victim-cache behaviour, §4.1).
	ConsumeReplicaOnHit bool
	// ThresholdRT marks schemes that consume Config.RT as their replication
	// threshold; their runs are labelled Name-<RT> ("RT-3").
	ThresholdRT bool
	// New constructs the policy bound to an engine.
	New func(e *Engine) Policy
}

// descriptors is the scheme table, indexed by Scheme: the five schemes of
// the paper's evaluation, then EHC. Adding a scheme is one row here plus
// its policy type in a policy_*.go file.
var descriptors = [...]Descriptor{
	SNUCA: {
		Scheme:      SNUCA,
		Name:        "S-NUCA",
		Description: "Static-NUCA baseline: lines address-interleaved across all LLC slices, no replication",
		New:         func(e *Engine) Policy { return snucaPolicy{basePolicy{e}} },
	},
	RNUCA: {
		Scheme:           RNUCA,
		Name:             "R-NUCA",
		Description:      "Reactive-NUCA baseline: private pages at the owner's slice, shared pages interleaved, instructions cluster-replicated",
		RNUCAPlacement:   true,
		InstrClusterHome: true,
		New:              func(e *Engine) Policy { return rnucaPolicy{basePolicy{e}} },
	},
	VR: {
		Scheme:              VR,
		Name:                "VR",
		Description:         "Victim Replication: the local LLC slice acts as a victim cache for L1 evictions",
		UsesReplicas:        true,
		ConsumeReplicaOnHit: true,
		New:                 func(e *Engine) Policy { return vrPolicy{basePolicy{e}} },
	},
	ASR: {
		Scheme:       ASR,
		Name:         "ASR",
		Description:  "Adaptive Selective Replication: shared read-only L1 victims replicated with a per-run probability level",
		UsesReplicas: true,
		New:          func(e *Engine) Policy { return asrPolicy{basePolicy{e}} },
	},
	LocalityAware: {
		Scheme:         LocalityAware,
		Name:           "RT",
		Description:    "locality-aware replication (the paper's protocol): replication gated by the run-time locality classifier with threshold RT",
		UsesReplicas:   true,
		RNUCAPlacement: true,
		ThresholdRT:    true,
		New:            newRTPolicy,
	},
	ExpectedHitCount: {
		Scheme:       ExpectedHitCount,
		Name:         "EHC",
		Description:  "expected-hit-count replication: lines whose home serviced >= RT reads since the last write replicate in every remote reader's local slice",
		UsesReplicas: true,
		ThresholdRT:  true,
		New:          func(e *Engine) Policy { return ehcPolicy{basePolicy{e}} },
	},
}

// Describe returns the descriptor of scheme s.
func Describe(s Scheme) (Descriptor, bool) {
	if int(s) >= len(descriptors) {
		return Descriptor{}, false
	}
	return descriptors[s], true
}

// Registered returns every scheme's descriptor in id order.
func Registered() []Descriptor {
	return slices.Clone(descriptors[:])
}

// LabelFor renders a configured run's scheme the way the paper's figures do:
// Name-<RT> for a ThresholdRT scheme ("RT-3"), Name otherwise. Unknown
// schemes fall back to the Scheme(%d) placeholder of String.
func LabelFor(s Scheme, cfg *config.Config) string {
	d, ok := Describe(s)
	switch {
	case !ok:
		return s.String()
	case d.ThresholdRT:
		return d.Name + "-" + strconv.Itoa(cfg.RT)
	default:
		return d.Name
	}
}

// basePolicy is the no-op policy every scheme embeds: pure S-NUCA behaviour
// with no replication. Overriding only the relevant hooks keeps each scheme
// file down to its actual decisions.
type basePolicy struct {
	e *Engine
}

func (basePolicy) ClusterReplication() bool                             { return false }
func (basePolicy) ReplicaSlice(_ mem.LineAddr, c mem.CoreID) mem.CoreID { return c }
func (basePolicy) ReplicateOnRead(*llcMeta, mem.CoreID) bool            { return false }
func (basePolicy) ReplicateOnWrite(*llcMeta, mem.CoreID, bool) bool     { return false }
func (basePolicy) OnWrite(*llcMeta, mem.CoreID)                         {}
func (basePolicy) OnReplicaGone(*llcMeta, mem.CoreID, uint8, bool)      {}
func (basePolicy) OnClusterReplicaGone(*llcMeta, mem.CoreID, uint8, bool) {
}
func (basePolicy) VictimReplicate(mem.CoreID, l1Line, mem.Cycles) bool { return false }
func (basePolicy) SideClassifier() core.Classifier                     { return nil }
