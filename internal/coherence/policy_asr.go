package coherence

import "lard/internal/mem"

// asrPolicy is Adaptive Selective Replication: on L1 eviction, clean lines
// classified shared read-only are replicated into the local slice with a
// per-run probability level (§3.3). The level lottery is the engine's only
// randomness; the per-benchmark best-of-levels selection the paper applies
// lives in the campaign expansion (lard.CampaignSpec.AutoASR), not here.
type asrPolicy struct{ basePolicy }

// VictimReplicate replicates never-written (shared read-only) clean victims
// with probability Options.ASRLevel, through the same insertion filter as VR.
func (p asrPolicy) VictimReplicate(c mem.CoreID, victim l1Line, t mem.Cycles) bool {
	e := p.e
	return !victim.Dirty && victim.Meta.sharedRO &&
		e.rng.Float64() < e.opts.ASRLevel && e.tryVictimInsert(c, victim, t)
}
