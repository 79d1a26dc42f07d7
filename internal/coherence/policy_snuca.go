package coherence

// snucaPolicy is the Static-NUCA baseline: every line address-interleaved
// across the LLC slices, no replication. It is exactly the engine's shared
// machinery with every policy hook at its default.
type snucaPolicy struct{ basePolicy }
