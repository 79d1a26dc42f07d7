package coherence

import (
	"strconv"

	"lard/internal/config"
	"lard/internal/mem"
)

// ExpectedHitCount is the sixth registered scheme: replication gated by an
// expected-hit-count signal instead of the paper's per-core locality
// classifier. It exists both as a useful baseline and as the registry's
// proof of pluggability — this file plus the wire registration in the lard
// facade are the only code a new scheme needs; no engine, harness, facade
// or server switch is touched.
const ExpectedHitCount Scheme = 5

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
type ehcPolicy struct{ basePolicy }

// ehcState is the per-line policy state, stored in the directory entry's
// opaque Classifier slot so it lives and dies with the home copy, and is
// recycled with the entry.
type ehcState struct {
	homeReads uint8
}

// Reset clears the counter; the state is recycled with its entry.
func (s *ehcState) Reset() { *s = ehcState{} }

func (p ehcPolicy) stateOf(ent *dirEntry) *ehcState {
	if ent.Classifier == nil {
		ent.Classifier = &ehcState{}
	}
	return ent.Classifier.(*ehcState)
}

// ReplicateOnRead advances the line's home-read counter (a directory-entry
// update, charged like the RT classifier's) and grants a replica once it
// reaches the threshold.
func (p ehcPolicy) ReplicateOnRead(ent *dirEntry, c mem.CoreID) bool {
	st := p.stateOf(ent)
	st.homeReads = satReuse(st.homeReads, p.e.cfg.RT)
	p.e.chargeDir(true)
	return int(st.homeReads) >= p.e.cfg.RT
}

// OnWrite resets the hit-count evidence: reads counted against the previous
// version predict nothing about the data just written.
func (p ehcPolicy) OnWrite(ent *dirEntry, writer mem.CoreID) {
	p.stateOf(ent).homeReads = 0
	p.e.chargeDir(true)
}

func init() {
	Register(Descriptor{
		Scheme:      ExpectedHitCount,
		Name:        "EHC",
		Description: "expected-hit-count replication: lines whose home serviced >= RT reads since the last write replicate in every remote reader's local slice",
		Label: func(cfg *config.Config) string {
			return "EHC-" + strconv.Itoa(cfg.RT)
		},
		UsesReplicas: true,
		ThresholdRT:  true,
		New:          func(e *Engine) Policy { return ehcPolicy{basePolicy{e}} },
	})
}
