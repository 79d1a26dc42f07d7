package coherence

import "lard/internal/mem"

// vrPolicy is Victim Replication: the local LLC slice doubles as a victim
// cache for L1 evictions (§3.3). Replicas are created on eviction, not on
// home access, and a replica hit is exclusive — the line moves back into the
// L1 and the LLC copy is invalidated (§4.1).
type vrPolicy struct{ basePolicy }

// VictimReplicate writes every L1 victim into the local slice, subject to
// VR's insertion filter (invalid way, another replica, or a sharer-free home
// line; the victim is dropped otherwise).
func (p vrPolicy) VictimReplicate(c mem.CoreID, victim l1Line, t mem.Cycles) bool {
	return p.e.tryVictimInsert(c, victim, t)
}
