package coherence

import (
	"strconv"

	"lard/internal/config"
	"lard/internal/mem"
)

// rtPolicy is the paper's locality-aware replication protocol: R-NUCA-style
// placement (instructions treated like any other shared data, §2.1) with
// replication gated per (line, core) by the run-time locality classifier of
// internal/core — a home-reuse counter promoted at threshold RT, demoted by
// the Figure-3 rules when replicas are evicted or invalidated. With
// ClusterSize > 1 replicas are shared by a cluster of cores at a
// rotationally-interleaved slice and invalidated hierarchically (§2.3.4).
type rtPolicy struct{ basePolicy }

func (p rtPolicy) ClusterReplication() bool { return p.e.cfg.ClusterSize > 1 }

func (p rtPolicy) ReplicaSlice(la mem.LineAddr, c mem.CoreID) mem.CoreID {
	return p.e.replicaSliceFor(la, c)
}

// ReplicateOnRead consults (and advances) the classifier on every home read
// (§2.2.1); the classifier state update rides a directory write.
func (p rtPolicy) ReplicateOnRead(ent *dirEntry, c mem.CoreID) bool {
	ok := p.e.classifierOf(ent).OnReadHome(c)
	p.e.chargeDir(true)
	return ok
}

// ReplicateOnWrite grants a Modified-state replica when the classifier
// promotes the writer (migratory sharing, §2.3.1).
func (p rtPolicy) ReplicateOnWrite(ent *dirEntry, c mem.CoreID, soleSharer bool) bool {
	return p.e.classifierOf(ent).OnWriteHome(c, soleSharer)
}

// OnWrite resets the home-reuse counters of the non-replica sharers other
// than the writer (§2.2.2): they have not shown enough reuse to be promoted.
func (p rtPolicy) OnWrite(ent *dirEntry, writer mem.CoreID) {
	p.e.classifierOf(ent).OnOthersReset(writer)
	p.e.chargeDir(true)
}

// OnReplicaGone applies the Figure-3 demotion rules using the replica-reuse
// counter carried by the eviction/invalidation acknowledgement (§2.2.3).
func (p rtPolicy) OnReplicaGone(ent *dirEntry, c mem.CoreID, reuse uint8, invalidation bool) {
	p.e.classifierOf(ent).OnReplicaGone(c, reuse, invalidation)
}

// OnClusterReplicaGone applies the replica-loss event to every core of the
// cluster the replica served (the flat approximation of §2.3.4).
func (p rtPolicy) OnClusterReplicaGone(ent *dirEntry, rs mem.CoreID, reuse uint8, invalidation bool) {
	p.e.demoteCluster(p.e.classifierOf(ent), rs, reuse, invalidation)
}

func init() {
	Register(Descriptor{
		Scheme:      LocalityAware,
		Name:        "RT",
		Description: "locality-aware replication (the paper's protocol): replication gated by the run-time locality classifier with threshold RT",
		Label: func(cfg *config.Config) string {
			return "RT-" + strconv.Itoa(cfg.RT)
		},
		UsesReplicas:   true,
		RNUCAPlacement: true,
		ThresholdRT:    true,
		New:            func(e *Engine) Policy { return rtPolicy{basePolicy{e}} },
	})
}
