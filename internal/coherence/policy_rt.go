package coherence

import (
	"lard/internal/core"
	"lard/internal/mem"
)

// rtPolicy is the paper's locality-aware replication protocol: R-NUCA-style
// placement (instructions treated like any other shared data, §2.1) with
// replication gated per (line, core) by the run-time locality classifier of
// internal/core — a home-reuse counter promoted at threshold RT, demoted by
// the Figure-3 rules when replicas are evicted or invalidated. With
// ClusterSize > 1 replicas are shared by a cluster of cores at a
// rotationally-interleaved slice and invalidated hierarchically (§2.3.4).
type rtPolicy struct {
	basePolicy
	params core.Params
	// inline classifies the lines whose Limited-k list fits their directory
	// entry's Local bytes (k <= core.InlineK); nil when every line's
	// classifier lives in its side record.
	inline *core.Limited
}

func newRTPolicy(e *Engine) Policy {
	p := &rtPolicy{basePolicy: basePolicy{e}, params: core.Params{RT: e.cfg.RT, Cores: e.cfg.Cores, K: e.cfg.ClassifierK}}
	if p.params.K >= 1 && p.params.K <= core.InlineK {
		p.inline = core.NewInline(p.params)
	}
	return p
}

// SideClassifier gives each line the Complete classifier or a Limited-k
// list too long to inline.
func (p *rtPolicy) SideClassifier() core.Classifier {
	if p.inline != nil {
		return nil
	}
	return core.New(p.params)
}

// classifier returns home line m's locality classifier.
func (p *rtPolicy) classifier(m *llcMeta) core.Classifier {
	if p.inline != nil {
		return p.inline.Bind((*core.Inline)(&m.dir.Local))
	}
	return p.e.side[m.link].clf
}

func (p *rtPolicy) ClusterReplication() bool { return p.e.cfg.ClusterSize > 1 }

func (p *rtPolicy) ReplicaSlice(la mem.LineAddr, c mem.CoreID) mem.CoreID {
	return p.e.replicaSliceFor(la, c)
}

// ReplicateOnRead consults (and advances) the classifier on every home read
// (§2.2.1); the classifier state update rides a directory write.
func (p *rtPolicy) ReplicateOnRead(m *llcMeta, c mem.CoreID) bool {
	ok := p.classifier(m).OnReadHome(c)
	p.e.chargeDir(true)
	return ok
}

// ReplicateOnWrite grants a Modified-state replica when the classifier
// promotes the writer (migratory sharing, §2.3.1).
func (p *rtPolicy) ReplicateOnWrite(m *llcMeta, c mem.CoreID, soleSharer bool) bool {
	return p.classifier(m).OnWriteHome(c, soleSharer)
}

// OnWrite resets the home-reuse counters of the non-replica sharers other
// than the writer (§2.2.2): they have not shown enough reuse to be promoted.
func (p *rtPolicy) OnWrite(m *llcMeta, writer mem.CoreID) {
	p.classifier(m).OnOthersReset(writer)
	p.e.chargeDir(true)
}

// OnReplicaGone applies the Figure-3 demotion rules using the replica-reuse
// counter carried by the eviction/invalidation acknowledgement (§2.2.3).
func (p *rtPolicy) OnReplicaGone(m *llcMeta, c mem.CoreID, reuse uint8, invalidation bool) {
	p.classifier(m).OnReplicaGone(c, reuse, invalidation)
}

// OnClusterReplicaGone applies the replica-loss event to every core of the
// cluster the replica served (the flat approximation of §2.3.4).
func (p *rtPolicy) OnClusterReplicaGone(m *llcMeta, rs mem.CoreID, reuse uint8, invalidation bool) {
	p.e.demoteCluster(p.classifier(m), rs, reuse, invalidation)
}
