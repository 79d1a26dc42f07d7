package coherence

import "lard/internal/mem"

// ehcPolicy gates replication on a per-line saturating hit counter kept at
// the home (after the expected-hit-count replacement work of Vakil-Ghahani
// et al.): once a line's home has serviced Config.RT read accesses since the
// last write, every remote reader is granted a replica in its local slice —
// the line has demonstrated enough reuse that its expected hit count repays
// the replica's capacity cost. A write resets the counter: the accumulated
// evidence predates data that no longer exists.
//
// Compared to the paper's protocol the signal is per-line rather than per
// (line, core): cheaper (one counter in the directory entry, no locality
// list) but blind to which core shows the reuse — the trade-off the paper's
// classifier exists to win. Placement is pure S-NUCA interleaving and
// replicas are local-slice only, so the scheme exercises the engine's
// generic replica machinery (probe, reuse counters, invalidation,
// modified-LRU ranking) with none of the RT-specific paths.
//
// The counter is the first of the home line's dir.Local bytes, zero when
// the line is born, so the scheme allocates nothing per line.
type ehcPolicy struct{ basePolicy }

// ReplicateOnRead advances the line's home-read counter (a directory-entry
// update, charged like the RT classifier's) and grants a replica once it
// reaches the threshold.
func (p ehcPolicy) ReplicateOnRead(m *llcMeta, c mem.CoreID) bool {
	reads := &m.dir.Local[0]
	*reads = satReuse(*reads, p.e.cfg.RT)
	p.e.chargeDir(true)
	return int(*reads) >= p.e.cfg.RT
}

// OnWrite resets the hit-count evidence: reads counted against the previous
// version predict nothing about the data just written.
func (p ehcPolicy) OnWrite(m *llcMeta, writer mem.CoreID) {
	m.dir.Local[0] = 0
	p.e.chargeDir(true)
}
