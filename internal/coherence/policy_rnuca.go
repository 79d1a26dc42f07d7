package coherence

// rnucaPolicy is the Reactive-NUCA baseline: private pages homed at the
// owner's slice, shared pages interleaved (the placement the locality-aware
// protocol also builds on), and instructions replicated one slice per 4-core
// cluster via rotational interleaving. R-NUCA places no data replicas, so
// every replication hook stays at its default.
type rnucaPolicy struct{ basePolicy }

// InstrClusterHome homes instruction lines within the requester's 4-core
// cluster (rotational interleaving) instead of interleaving them globally.
func (rnucaPolicy) InstrClusterHome() bool { return true }

func init() {
	Register(Descriptor{
		Scheme:         RNUCA,
		Name:           "R-NUCA",
		Description:    "Reactive-NUCA baseline: private pages at the owner's slice, shared pages interleaved, instructions cluster-replicated",
		RNUCAPlacement: true,
		New:            func(e *Engine) Policy { return rnucaPolicy{basePolicy{e}} },
	})
}
