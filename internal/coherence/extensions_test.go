package coherence

import (
	"testing"

	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/stats"
)

// TestTLHSendsHints: under TLH-LRU, every TLHPeriod-th L1 hit refreshes the
// LLC copy's recency and pays network traffic (§2.2.4 alternative).
func TestTLHSendsHints(t *testing.T) {
	cfg := config.Small()
	cfg.Replacement = config.TLHLRU
	cfg.TLHPeriod = 4
	e := New(cfg, Options{Scheme: SNUCA, CheckInvariants: true})
	la := mem.LineAddr(0x2001) // interleaved home = core 1, remote for core 0
	tm := rd(e, 0, 0, la).Done
	flitsBefore := e.mesh.FlitHops()
	for i := 0; i < 8; i++ { // 8 L1 hits -> 2 hints
		tm = rd(e, 0, tm, la).Done
	}
	if e.mesh.FlitHops() <= flitsBefore {
		t.Fatal("TLH must generate hint traffic on L1 hits")
	}
}

// TestTLHRefreshesRecency: the hinted line survives eviction pressure that
// would evict it under plain LRU.
func TestTLHRefreshesRecency(t *testing.T) {
	build := func(policy config.ReplacementPolicy) *Engine {
		cfg := config.Small()
		cfg.Replacement = policy
		cfg.TLHPeriod = 1 // hint on every L1 hit
		return New(cfg, Options{Scheme: SNUCA})
	}
	for _, tc := range []struct {
		policy   config.ReplacementPolicy
		expected bool // hot line survives?
	}{
		{config.TLHLRU, true},
		{config.PlainLRU, false},
	} {
		e := build(tc.policy)
		hot := mem.LineAddr(0x4000)
		home := e.homeOfLine(hot, 0)
		tm := rd(e, 0, 0, hot).Done
		// Interleave L1 hits on the hot line (hints under TLH) with set
		// pressure at its home. Under plain LRU the silent L1 hits leave
		// the LLC copy stale and it gets evicted (then refetched off-chip);
		// under TLH the hints keep it resident — count hot off-chip misses.
		set := e.tiles[home].llc.SetOf(hot)
		offchip := 0
		filled := 0
		for la := mem.LineAddr(0x10000); filled < 3*e.tiles[home].llc.Ways(); la++ {
			if e.homeOfLine(la, 1) != home || e.tiles[home].llc.SetOf(la) != set {
				continue
			}
			for i := 0; i < 4; i++ {
				res := rd(e, 0, tm, hot)
				tm = res.Done
				if res.Miss == stats.OffChipMiss {
					offchip++
				}
			}
			tm = rd(e, 1, tm, la).Done
			filled++
		}
		refetched := offchip > 0
		if refetched == tc.expected {
			t.Errorf("%v: hot line refetched=%v (offchip=%d), want refetched=%v",
				tc.policy, refetched, offchip, !tc.expected)
		}
	}
}

// TestKeepL1OnReplicaEvict: with the §2.2.3 alternative strategy the L1
// copy outlives the replica and the core remains a sharer until the second
// acknowledgement.
func TestKeepL1OnReplicaEvict(t *testing.T) {
	cfg := config.Small()
	cfg.KeepL1OnReplicaEvict = true
	e := New(cfg, Options{Scheme: LocalityAware, CheckInvariants: true})
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 4; i++ {
		tm = rd(e, c, tm, la).Done
		if i < 3 {
			e.tiles[c].l1d.Invalidate(la)
		}
	}
	l := e.tiles[c].llc.Lookup(la)
	if l == nil || l.Meta.home() {
		t.Fatal("setup: replica expected")
	}
	victim := *l
	e.tiles[c].llc.Invalidate(la)
	e.replicaEvicted(c, victim, tm)
	if e.tiles[c].l1d.Lookup(la) == nil {
		t.Fatal("keep-L1 strategy must preserve the L1 copy")
	}
	home := e.homeOfLine(la, c)
	if !e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("core must remain a sharer while its L1 copy lives")
	}
	// The retained copy still reads correctly (SWMR checker armed) and a
	// write by another core invalidates it.
	tm = rd(e, c, tm, la).Done
	wr(e, 9, tm, la)
	if e.tiles[c].l1d.Lookup(la) != nil {
		t.Fatal("write must invalidate the retained L1 copy")
	}
}

// TestKeepL1SecondAck: evicting the retained L1 copy later removes the
// sharer (the second acknowledgement message of §2.2.3).
func TestKeepL1SecondAck(t *testing.T) {
	cfg := config.Small()
	cfg.KeepL1OnReplicaEvict = true
	e := New(cfg, Options{Scheme: LocalityAware, CheckInvariants: true})
	sharedLine(e, 0x2000)
	c := mem.CoreID(2)
	la := mem.LineAddr(0x2000)
	var tm mem.Cycles
	for i := 0; i < 4; i++ {
		tm = rd(e, c, tm, la).Done
		if i < 3 {
			e.tiles[c].l1d.Invalidate(la)
		}
	}
	l := e.tiles[c].llc.Lookup(la)
	victim := *l
	e.tiles[c].llc.Invalidate(la)
	e.replicaEvicted(c, victim, tm)
	l1victim := *e.tiles[c].l1d.Lookup(la)
	e.tiles[c].l1d.Invalidate(la)
	e.handleL1Evict(c, l1victim, e.tiles[c].l1i, tm)
	home := e.homeOfLine(la, c)
	if e.homeEntry(home, la).Meta.dir.Sharers.Has(c) {
		t.Fatal("second acknowledgement must remove the sharer")
	}
}

// TestEnergyBreakdownComponentsPresent: a representative run touches every
// energy component of Figure 6.
func TestEnergyBreakdownComponentsPresent(t *testing.T) {
	e := testEngine(LocalityAware)
	var tm mem.Cycles
	for i := 0; i < 2000; i++ {
		c := mem.CoreID(i % 16)
		la := mem.LineAddr(0x2000 + i%331)
		if i%11 == 0 {
			tm = wr(e, c, tm, la).Done
		} else {
			tm = rd(e, c, tm, la).Done
		}
	}
	for comp := 0; comp < energy.NumComponents; comp++ {
		if e.Meter().PJ(energy.Component(comp)) == 0 {
			t.Errorf("component %v received no energy", energy.Component(comp))
		}
	}
}
