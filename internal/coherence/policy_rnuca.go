package coherence

// rnucaPolicy is the Reactive-NUCA baseline: private pages homed at the
// owner's slice, shared pages interleaved (the placement the locality-aware
// protocol also builds on), and instructions replicated one slice per 4-core
// cluster via rotational interleaving. R-NUCA places no data replicas, so
// every replication hook stays at its default.
type rnucaPolicy struct{ basePolicy }
