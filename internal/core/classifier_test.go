package core

import (
	"testing"
	"testing/quick"

	"lard/internal/mem"
)

func completeRT3() Classifier { return New(Params{RT: 3, Cores: 16, K: 0}) }

func limitedRT3(k int) Classifier { return New(Params{RT: 3, Cores: 16, K: k}) }

func TestNewPanicsOnBadRT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RT 0 must panic")
		}
	}()
	New(Params{RT: 0, Cores: 4})
}

func TestNewSelectsImplementation(t *testing.T) {
	if _, ok := New(Params{RT: 3, Cores: 4, K: 0}).(*complete); !ok {
		t.Error("K=0 must build the Complete classifier")
	}
	if _, ok := New(Params{RT: 3, Cores: 4, K: 3}).(*Limited); !ok {
		t.Error("K=3 must build the Limited classifier")
	}
}

// --- Figure 3 state machine, Complete classifier -------------------------

// TestInitialMode: every core starts in non-replica mode.
func TestInitialMode(t *testing.T) {
	k := completeRT3()
	for c := mem.CoreID(0); c < 16; c++ {
		if k.ModeOf(c) {
			t.Fatalf("core %d must start non-replica", c)
		}
	}
}

// TestReadPromotion: home reuse reaching RT promotes (§2.2.1).
func TestReadPromotion(t *testing.T) {
	k := completeRT3()
	if k.OnReadHome(2) {
		t.Fatal("1st read: reuse 1 < RT, no replica")
	}
	if k.OnReadHome(2) {
		t.Fatal("2nd read: reuse 2 < RT, no replica")
	}
	if !k.OnReadHome(2) {
		t.Fatal("3rd read: reuse reaches RT, replica must be granted")
	}
	if !k.ModeOf(2) {
		t.Fatal("core must now be in replica mode")
	}
	if !k.OnReadHome(2) {
		t.Fatal("replica-mode core always gets replicas")
	}
	if k.ModeOf(3) {
		t.Fatal("other cores unaffected")
	}
}

// TestRT1PromotesImmediately: RT-1 replicates on the first access (§4.1).
func TestRT1PromotesImmediately(t *testing.T) {
	k := New(Params{RT: 1, Cores: 16, K: 0})
	if !k.OnReadHome(0) {
		t.Fatal("RT-1 must replicate on the first home access")
	}
}

// TestMigratoryWritePromotion: a sole sharer accumulates reuse across its
// own writes — migratory data replication (§2.2.2).
func TestMigratoryWritePromotion(t *testing.T) {
	k := completeRT3()
	if k.OnWriteHome(5, true) || k.OnWriteHome(5, true) {
		t.Fatal("first two sole writes stay below RT")
	}
	if !k.OnWriteHome(5, true) {
		t.Fatal("3rd sole write must promote (migratory pattern)")
	}
}

// TestContendedWriteResetsToOne: a non-sole writer restarts its count at 1
// (§2.2.2: the replica would be downgraded by conflicting requests).
func TestContendedWriteResetsToOne(t *testing.T) {
	k := completeRT3()
	k.OnReadHome(5)
	k.OnReadHome(5) // reuse 2
	if k.OnWriteHome(5, false) {
		t.Fatal("contended write must not promote")
	}
	// Count restarted at 1: two more sole accesses needed.
	if k.OnReadHome(5) {
		t.Fatal("reuse 2 after reset")
	}
	if !k.OnReadHome(5) {
		t.Fatal("reuse 3: promote")
	}
}

// TestOnOthersReset: a write resets the home-reuse counters of all other
// non-replica cores (§2.2.2).
func TestOnOthersReset(t *testing.T) {
	k := completeRT3()
	k.OnReadHome(1)
	k.OnReadHome(1) // core 1 at reuse 2
	k.OnOthersReset(0)
	// Core 1's progress is gone: needs 3 fresh accesses.
	k.OnReadHome(1)
	k.OnReadHome(1)
	if k.ModeOf(1) {
		t.Fatal("reset must have cleared progress")
	}
	if !k.OnReadHome(1) {
		t.Fatal("3rd access after reset must promote")
	}
}

// TestOnOthersResetSparesWriter: the writer keeps its own counter.
func TestOnOthersResetSparesWriter(t *testing.T) {
	k := completeRT3()
	k.OnReadHome(1)
	k.OnReadHome(1)
	k.OnOthersReset(1) // core 1 itself wrote
	if !k.OnReadHome(1) {
		t.Fatal("writer's counter must survive OnOthersReset")
	}
}

// TestOnOthersResetSparesReplicaModes: replica-mode cores are handled via
// invalidation acknowledgements, not the bulk reset.
func TestOnOthersResetSparesReplicaModes(t *testing.T) {
	k := completeRT3()
	for i := 0; i < 3; i++ {
		k.OnReadHome(1)
	}
	k.OnOthersReset(0)
	if !k.ModeOf(1) {
		t.Fatal("replica mode must survive OnOthersReset")
	}
}

// TestEvictionDemotion: replica eviction keeps replica status iff the
// replica reuse alone reached RT (Figure 3, eviction arc).
func TestEvictionDemotion(t *testing.T) {
	k := completeRT3()
	for i := 0; i < 3; i++ {
		k.OnReadHome(4)
	}
	k.OnReplicaGone(4, 2, false) // evicted with reuse 2 < RT
	if k.ModeOf(4) {
		t.Fatal("low-reuse eviction must demote")
	}
	// Re-promote, then evict with high reuse.
	for i := 0; i < 3; i++ {
		k.OnReadHome(4)
	}
	k.OnReplicaGone(4, 3, false)
	if !k.ModeOf(4) {
		t.Fatal("reuse >= RT at eviction must retain replica status")
	}
}

// TestInvalidationUsesSumOfReuses: on invalidation the decision uses
// replica + home reuse — the total reuse the core exhibited between
// successive writes (§2.2.3). Home reuse is only accumulated by accesses
// serviced at the home (§2.2.1), i.e. before the replica was created.
func TestInvalidationUsesSumOfReuses(t *testing.T) {
	k := completeRT3()
	for i := 0; i < 3; i++ {
		k.OnReadHome(4) // home reuse saturates at RT=3; replica created
	}
	// Invalidation with replica reuse 0: 0 + 3 >= RT keeps replica status
	// (the pre-promotion home accesses count toward the round's total).
	k.OnReplicaGone(4, 0, true)
	if !k.ModeOf(4) {
		t.Fatal("replica+home reuse >= RT must retain status on invalidation")
	}
	// Home reuse was reset to 0; the replica-mode core's next reads are
	// serviced by a fresh replica, so an invalidation with replica reuse 1
	// sees 1 + 0 < RT and demotes.
	k.OnReplicaGone(4, 1, true)
	if k.ModeOf(4) {
		t.Fatal("reuse sum below RT must demote")
	}
	// Had the same loss been an eviction the rule is identical here, but
	// with home reuse present only the invalidation arc adds it:
	k2 := completeRT3()
	for i := 0; i < 3; i++ {
		k2.OnReadHome(6)
	}
	k2.OnReplicaGone(6, 0, false) // eviction: replica reuse alone, 0 < RT
	if k2.ModeOf(6) {
		t.Fatal("eviction must ignore home reuse and demote")
	}
}

// TestHomeReuseResetAfterReplicaGone: the next round of classification
// starts from zero (§2.2.3).
func TestHomeReuseResetAfterReplicaGone(t *testing.T) {
	k := completeRT3()
	for i := 0; i < 3; i++ {
		k.OnReadHome(4)
	}
	k.OnReplicaGone(4, 1, false) // demote, reset
	if k.OnReadHome(4) || k.OnReadHome(4) {
		t.Fatal("counter must restart from zero after demotion")
	}
	if !k.OnReadHome(4) {
		t.Fatal("third access re-promotes")
	}
}

func TestCompleteTracksEveryCore(t *testing.T) {
	k := completeRT3()
	for c := mem.CoreID(0); c < 16; c++ {
		if !k.Tracked(c) {
			t.Fatalf("Complete must track core %d", c)
		}
	}
}

// --- Limited-k classifier (§2.2.5) ----------------------------------------

func TestLimitedAllocatesFreeEntries(t *testing.T) {
	k := limitedRT3(3)
	for c := mem.CoreID(0); c < 3; c++ {
		k.OnReadHome(c)
		if !k.Tracked(c) {
			t.Fatalf("core %d must get a free entry", c)
		}
	}
	k.OnReadHome(3)
	if k.Tracked(3) {
		t.Fatal("4th core must not be tracked: no free or inactive entry")
	}
}

// TestLimitedUntrackedMajorityVote: an untracked core is classified by the
// majority vote of the tracked modes.
func TestLimitedUntrackedMajorityVote(t *testing.T) {
	k := limitedRT3(3)
	// Promote cores 0 and 1 (majority replica), leave 2 non-replica.
	for i := 0; i < 3; i++ {
		k.OnReadHome(0)
		k.OnReadHome(1)
	}
	k.OnReadHome(2)
	if !k.OnReadHome(7) {
		t.Fatal("majority replica: untracked core must be granted a replica")
	}
	if !k.ModeOf(7) {
		t.Fatal("ModeOf(untracked) must report the majority vote")
	}
}

// TestLimitedUntrackedNonReplicaCannotPromote: with a non-replica majority,
// an untracked core can never accumulate reuse — the STREAMCLUSTER
// pathology of §4.3.
func TestLimitedUntrackedNonReplicaCannotPromote(t *testing.T) {
	k := limitedRT3(3)
	for c := mem.CoreID(0); c < 3; c++ {
		k.OnReadHome(c) // three active non-replica entries
	}
	for i := 0; i < 10; i++ {
		if k.OnReadHome(9) {
			t.Fatal("untracked core with non-replica majority must never replicate")
		}
	}
}

// TestLimitedInactiveReplacement: an inactive sharer relinquishes its entry;
// the newcomer starts in the majority mode (its "most probable mode").
func TestLimitedInactiveReplacement(t *testing.T) {
	k := limitedRT3(3)
	for i := 0; i < 3; i++ {
		k.OnReadHome(0)
		k.OnReadHome(1)
		k.OnReadHome(2)
	}
	// All three are replica-mode and active. Invalidate core 2's replica
	// with good reuse: it keeps replica status but becomes inactive.
	k.OnReplicaGone(2, 3, false)
	k.OnReadHome(9)
	if !k.Tracked(9) {
		t.Fatal("newcomer must replace the inactive sharer")
	}
	if k.Tracked(2) {
		t.Fatal("core 2's entry must have been relinquished")
	}
	if !k.ModeOf(9) {
		t.Fatal("newcomer must start in the majority (replica) mode")
	}
}

// TestLimitedWriteInactivatesNonReplicas: OnOthersReset makes non-replica
// entries inactive, so they can be replaced.
func TestLimitedWriteInactivatesNonReplicas(t *testing.T) {
	k := limitedRT3(3)
	k.OnReadHome(0)
	k.OnReadHome(1)
	k.OnReadHome(2)
	k.OnOthersReset(0) // cores 1, 2 become inactive
	k.OnReadHome(9)
	if !k.Tracked(9) {
		t.Fatal("newcomer must replace an inactive non-replica entry")
	}
	if k.Tracked(1) && k.Tracked(2) {
		t.Fatal("one of the inactive entries must have been replaced")
	}
}

// TestLimitedMajorityTieIsNonReplica: ties (including the empty list)
// resolve to the Initial non-replica mode.
func TestLimitedMajorityTieIsNonReplica(t *testing.T) {
	k := limitedRT3(2)
	if k.ModeOf(5) {
		t.Fatal("empty list must vote non-replica")
	}
	// One replica, one non-replica: tie -> non-replica.
	for i := 0; i < 3; i++ {
		k.OnReadHome(0)
	}
	k.OnReadHome(1)
	if k.ModeOf(9) {
		t.Fatal("1-1 tie must vote non-replica")
	}
}

// TestLimited1FastTraining: Limited-1 classifies every new sharer by the
// single tracked core — the fast-but-unstable behaviour of §4.3.
func TestLimited1FastTraining(t *testing.T) {
	k := limitedRT3(1)
	for i := 0; i < 3; i++ {
		k.OnReadHome(0)
	}
	// Core 0 replica-mode; every untracked core inherits it immediately.
	if !k.OnReadHome(7) || !k.OnReadHome(12) {
		t.Fatal("Limited-1 must start new sharers in the first sharer's mode")
	}
}

// TestLimitedTrackedBehavesLikeComplete: while a core owns an entry its
// decisions match the Complete classifier's.
func TestLimitedTrackedBehavesLikeComplete(t *testing.T) {
	f := func(ops []uint8) bool {
		kc := completeRT3()
		kl := limitedRT3(16) // k = cores: everyone can be tracked
		for _, op := range ops {
			c := mem.CoreID(op % 16)
			switch (op >> 4) % 4 {
			case 0:
				if kc.OnReadHome(c) != kl.OnReadHome(c) {
					return false
				}
			case 1:
				sole := op&0x80 != 0
				if kc.OnWriteHome(c, sole) != kl.OnWriteHome(c, sole) {
					return false
				}
			case 2:
				kc.OnOthersReset(c)
				kl.OnOthersReset(c)
			case 3:
				kc.OnReplicaGone(c, op%4, op&0x40 != 0)
				kl.OnReplicaGone(c, op%4, op&0x40 != 0)
			}
		}
		// An untracked core has never read or written the line, so Complete
		// still holds it in the Initial (non-replica) mode, the mode its
		// free entry will start in. Limited's ModeOf answers the majority
		// vote for it instead, which is why only tracked cores compare.
		for c := mem.CoreID(0); c < 16; c++ {
			if kl.Tracked(c) {
				if kc.ModeOf(c) != kl.ModeOf(c) {
					return false
				}
			} else if kc.ModeOf(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterSaturation: reuse counters never exceed RT (they are sized for
// the threshold, §2.4.1) — expressed through behaviour: an arbitrarily long
// read streak still demotes after eviction with zero replica reuse.
func TestCounterSaturation(t *testing.T) {
	k := completeRT3()
	for i := 0; i < 100; i++ {
		k.OnReadHome(3)
	}
	k.OnReplicaGone(3, 0, false) // eviction, replica reuse 0 < RT
	if k.ModeOf(3) {
		t.Fatal("eviction rule uses replica reuse only; saturation must not leak")
	}
}

func TestSatIncr(t *testing.T) {
	if satIncr(0, 3) != 1 || satIncr(2, 3) != 3 || satIncr(3, 3) != 3 || satIncr(200, 3) != 200 {
		t.Fatal("satIncr wrong")
	}
}

// TestLimitedUntrackedReplicaGoneIsNoop: replica loss of an untracked core
// carries no classifier state.
func TestLimitedUntrackedReplicaGoneIsNoop(t *testing.T) {
	k := limitedRT3(2)
	k.OnReadHome(0)
	k.OnReadHome(1)
	k.OnReplicaGone(9, 3, true) // untracked: must not panic or disturb
	if !k.Tracked(0) || !k.Tracked(1) {
		t.Fatal("tracked entries must be unaffected")
	}
}
