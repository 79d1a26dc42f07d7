package coherence

import (
	"fmt"
	"math/bits"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
)

// Access performs one memory reference issued by core c at cycle t and
// returns its completion time, latency breakdown and service classification.
// The simulator presents accesses in global event order; the engine is
// deterministic for a given order.
func (e *Engine) Access(c mem.CoreID, t mem.Cycles, op Op) AccessResult {
	var res AccessResult
	e.AccessInto(&res, c, t, op)
	return res
}

// AccessInto is Access writing its result into *res, for a caller that
// reuses one result across accesses instead of copying it out.
func (e *Engine) AccessInto(res *AccessResult, c mem.CoreID, t mem.Cycles, op Op) {
	if e.opts.CheckInvariants && t < e.watermark {
		panic(fmt.Sprintf("coherence: core %d access at cycle %d, before the watermark %d", c, t, e.watermark))
	}
	*res = AccessResult{}
	// Reconcile: every cycle of the access span is attributed to exactly one
	// component, so per-core component sums add up to completion time. An
	// L1 hit charges no component, so its whole span is Compute.
	if e.doAccess(res, c, t, op) {
		res.Breakdown[stats.Compute] = res.Done - t
		return
	}
	span := res.Done - t
	var assigned mem.Cycles
	for _, v := range res.Breakdown {
		assigned += v
	}
	resid := span - assigned
	switch res.Miss {
	case stats.LLCReplicaHit:
		res.Breakdown[stats.L1ToLLCReplica] += resid
	default:
		res.Breakdown[stats.L1ToLLCHome] += resid
	}
}

// doAccess performs the access into *res, which starts zeroed, and
// reports whether it hit the L1.
func (e *Engine) doAccess(res *AccessResult, c mem.CoreID, t mem.Cycles, op Op) (l1Hit bool) {
	tl := e.tiles[c]
	l1 := tl.l1For(op.Type)

	// L1 lookup (1 cycle, Table 1).
	t += e.cfg.L1Latency
	e.chargeL1(op.Type.IsInstr(), false)
	if line := l1.Lookup(op.Line); line != nil {
		if !op.Type.IsWrite() {
			e.checkVersion(c, op.Line, uint64(line.Meta.version))
			l1.Touch(line)
			e.temporalHint(c, line, t)
			res.Done, res.Miss = t, stats.L1Hit
			return true
		}
		if line.State.Writable() {
			// Write hit on M, or silent E->M upgrade.
			e.checkVersion(c, op.Line, uint64(line.Meta.version))
			line.State = mem.Modified
			line.Dirty = true
			l1.Touch(line)
			e.temporalHint(c, line, t)
			e.chargeL1(op.Type.IsInstr(), true)
			res.Done, res.Miss = t, stats.L1Hit
			return true
		}
		// S-state write: the home upgrade path; the local copy stays valid
		// until the home grants write permission.
	}

	// Resolve placement (may trigger an R-NUCA page reclassification).
	home := e.homeFor(op, c, t)

	// Replica lookup at the local slice (or cluster replica slice).
	if e.usesReplicas {
		rslice := e.policy.ReplicaSlice(op.Line, c)
		if rslice != home {
			if done, hit := e.replicaLookup(c, rslice, op, t, res); hit {
				res.Done = done
				return false
			}
			t = e.afterReplicaMiss(c, rslice, op, t, res)
		}
	}

	res.Done = e.atHome(c, home, op, t, res)
	return false
}

// replicaLookup probes the replica slice. On a usable hit (any valid state
// for reads, M/E for writes, §2.2.2) it fills the requester's L1 and returns
// the completion time. On a miss nothing is charged here; afterReplicaMiss
// accounts the probe cost unless the §2.3.2 oracle is enabled.
func (e *Engine) replicaLookup(c, rslice mem.CoreID, op Op, t mem.Cycles, res *AccessResult) (mem.Cycles, bool) {
	tl := e.tiles[rslice]
	l := tl.llc.Lookup(op.Line)
	if l == nil || l.Meta.home() {
		return 0, false
	}
	if op.Type.IsWrite() && !l.State.Writable() {
		return 0, false
	}
	t0 := t
	t = e.mesh.Send(c, rslice, e.ctrlFlits(), t) // free when rslice == c
	t += e.cfg.LLCTagLatency + e.cfg.LLCDataLatency
	e.chargeLLCTag(false)
	e.chargeLLCData(false)
	e.chargeLLCTag(true) // LRU + replica-reuse update ride the tag write (§2.4.2)
	tl.llc.Touch(l)
	e.checkVersion(c, op.Line, l.Meta.dir.Version)

	version := l.Meta.dir.Version
	state := l.State
	replicaDirty := l.Dirty
	sharedRO := !l.Meta.everWritten()
	home := l.Meta.ref()
	class := l.Meta.class
	l.Meta.replicaReuse = satReuse(l.Meta.replicaReuse, e.cfg.RT)
	consumed := e.consumeOnHit
	if consumed {
		// Exclusive replica (VR-style): a hit moves the line into the L1 and
		// invalidates the LLC copy (§4.1).
		tl.llc.Invalidate(op.Line)
	}
	t = e.mesh.Send(rslice, c, e.dataFlits(), t)

	l1State := state
	fillDirty := replicaDirty && consumed // the move carries dirtiness
	if e.clusterRepl {
		// A cluster replica serves several cores' L1s; exclusivity lives at
		// the replica, so member L1 copies are granted Shared, and a member
		// write on a writable replica first back-invalidates its siblings
		// (the intra-cluster half of the hierarchical protocol, §2.3.4).
		l1State = mem.Shared
		if op.Type.IsWrite() {
			base := (int(rslice) / e.cfg.ClusterSize) * e.cfg.ClusterSize
			for i := 0; i < e.cfg.ClusterSize; i++ {
				member := mem.CoreID(base + i)
				if member == c {
					continue
				}
				mt := e.tiles[member]
				if _, ok := mt.l1i.Invalidate(op.Line); ok {
					e.chargeL1(true, true)
				}
				if _, ok := mt.l1d.Invalidate(op.Line); ok {
					e.chargeL1(false, true)
				}
			}
		}
	}
	if op.Type.IsWrite() {
		l1State = mem.Modified
		fillDirty = true
	}
	e.fillL1(c, op, l1State, fillDirty, version, sharedRO, home, !consumed, t)
	res.Breakdown[stats.L1ToLLCReplica] += t - t0
	res.Miss = stats.LLCReplicaHit
	e.replicaHits[class]++
	if e.runs != nil {
		e.runs.record(op.Line, c, op.Type.IsWrite(), op.Class)
	}
	return t, true
}

// afterReplicaMiss charges the failed replica-slice probe and returns the
// time at which the request proceeds to the home. The §2.3.2 dynamic oracle
// skips the probe entirely (the request routes straight to the home).
func (e *Engine) afterReplicaMiss(c, rslice mem.CoreID, op Op, t mem.Cycles, res *AccessResult) mem.Cycles {
	if e.cfg.LookupOracle {
		return t
	}
	t0 := t
	t = e.mesh.Send(c, rslice, e.ctrlFlits(), t)
	t += e.cfg.LLCTagLatency
	e.chargeLLCTag(false)
	res.Breakdown[stats.L1ToLLCReplica] += t - t0
	return t
}

// atHome runs the home-side transaction: serialization, home lookup with
// off-chip fill on miss, coherence actions, replication decision, reply and
// fills. It returns the completion time at the requester.
func (e *Engine) atHome(c, home mem.CoreID, op Op, t mem.Cycles, res *AccessResult) mem.Cycles {
	// Request leg. Under cluster replication the request was already
	// forwarded to the replica slice, which then forwards it to the home.
	src := c
	if e.usesReplicas && !e.cfg.LookupOracle {
		if rs := e.policy.ReplicaSlice(op.Line, c); rs != home {
			src = rs
		}
	}
	tstart := t
	arrive := e.mesh.Send(src, home, e.ctrlFlits(), t)
	res.Breakdown[stats.L1ToLLCHome] += arrive - tstart

	// Home serialization: the paper's "LLC home waiting time".
	llc := e.tiles[home].llc
	hi := e.homeIndex(home, op.Line)
	var hl *cacheLine
	if hi >= 0 {
		hl = llc.At(hi)
	}
	begin := max(arrive, e.homeStamp(home, op.Line, hl))
	if e.stampOracle != nil {
		e.checkStamp(home, op.Line, arrive, begin)
	}
	res.Breakdown[stats.LLCHomeWaiting] += begin - arrive
	t = begin + e.cfg.LLCTagLatency
	e.chargeLLCTag(false)
	e.chargeDir(false)

	if hl == nil {
		// Off-chip fetch.
		t0 := t
		ctrl := e.dram.ControllerFor(op.Line)
		ctile := e.dram.TileOf(ctrl)
		t = e.mesh.Send(home, ctile, e.ctrlFlits(), t)
		t = e.dram.Access(ctrl, t)
		t = e.mesh.Send(ctile, home, e.dataFlits(), t)
		res.Breakdown[stats.LLCHomeToOffChip] += t - t0
		hi = e.insertHomeLine(c, home, op, t)
		hl = llc.At(hi)
		t += e.cfg.LLCDataLatency
		e.chargeLLCTag(true)
		e.chargeLLCData(true)
		res.Miss = stats.OffChipMiss
	} else {
		res.Miss = stats.LLCHomeHit
	}
	if e.runs != nil {
		e.runs.record(op.Line, c, op.Type.IsWrite(), op.Class)
	}
	if mem.CoreID(hl.Meta.firstCore) != c {
		hl.Meta.flags |= lineEverShared
	}

	ref := newHomeRef(home, hi)
	if op.Type.IsWrite() {
		return e.homeWrite(c, home, op, hl, ref, t, res)
	}
	return e.homeRead(c, home, op, hl, ref, t, res)
}

// homeRead services a read or instruction fetch at the home (§2.2.1). ref
// is the back-handle to the home line hl.
func (e *Engine) homeRead(c, home mem.CoreID, op Op, hl *cacheLine, ref homeRef, t mem.Cycles, res *AccessResult) mem.Cycles {
	ent := &hl.Meta.dir
	la := op.Line

	// Synchronous write-back from an E/M owner elsewhere.
	if owner, ok := ent.Owner(); ok && owner != c {
		t0 := t
		tp := e.mesh.Send(home, owner, e.ctrlFlits(), t)
		tp += e.cfg.LLCTagLatency
		if e.downgradeAt(owner, la) {
			hl.Dirty = true
			e.chargeLLCData(true)
		}
		tr := e.mesh.Send(owner, home, e.dataFlits(), tp)
		ent.ClearOwner()
		e.chargeDir(true)
		res.Breakdown[stats.LLCHomeToSharers] += tr - t0
		t = tr
	}

	// Data array read for the reply.
	t += e.cfg.LLCDataLatency
	e.chargeLLCData(false)
	e.chargeLLCTag(true) // LRU update
	e.tiles[home].llc.Touch(hl)

	// Replication decision (§2.2.1). The policy observes every home access
	// (its reuse tracking advances on local hits too); a replica is only
	// physically created when the replica slice is not the home itself.
	rslice := e.policy.ReplicaSlice(la, c)
	replicate := e.policy.ReplicateOnRead(&hl.Meta, c) && home != c && rslice != home
	if replicate {
		e.clfPromotions++
	}

	// Grant Exclusive when the requester will be the only holder.
	grant := mem.Shared
	if (!e.clusterRepl || len(*e.replicaSlices(&hl.Meta)) == 0) &&
		(ent.Sharers.Count() == 0 || (ent.Sharers.Count() == 1 && ent.Sharers.Has(c))) {
		grant = mem.Exclusive
	}
	ent.AddSharer(c, e.cfg.AckwisePointers)
	if grant == mem.Exclusive {
		ent.SetOwner(c)
	}
	e.chargeDir(true)

	e.setStamp(home, la, ent, t) // home entry free for the next request

	version := ent.Version
	sharedRO := hl.Meta.flags&(lineEverShared|lineEverWritten) == lineEverShared
	if home == c {
		// Local home hit: L1 fill only (§2.2.1).
		e.fillL1(c, op, grant, false, version, sharedRO, ref, false, t)
		return t
	}

	if replicate && e.clusterRepl {
		// Cluster replication: data flows home -> replica slice -> L1, and
		// the home registers the replica slice so invalidations reach the
		// whole cluster hierarchy (§2.3.4). Member L1 copies are Shared;
		// exclusivity lives at the replica (see replicaLookup).
		l1grant := grant
		if grant.Writable() {
			l1grant = mem.Shared
		}
		tr := e.mesh.Send(home, rslice, e.dataFlits(), t)
		tr += e.cfg.LLCDataLatency
		e.insertReplica(rslice, la, grant, false, version, op.Class, hl.Meta.everWritten(), ref, tr)
		e.replicaSlices(&hl.Meta).Add(rslice)
		tr = e.mesh.Send(rslice, c, e.dataFlits(), tr)
		e.fillL1(c, op, l1grant, false, version, sharedRO, ref, true, tr)
		return tr
	}

	tr := e.mesh.Send(home, c, e.dataFlits(), t)
	if replicate {
		tr += e.cfg.LLCDataLatency
		e.insertReplica(c, la, grant, false, version, op.Class, hl.Meta.everWritten(), ref, tr)
	}
	e.fillL1(c, op, grant, false, version, sharedRO, ref, replicate, tr)
	return tr
}

// homeWrite services a store at the home (§2.2.2): invalidate every other
// copy (and the writer's own S-state replica), update the classifier, bump
// the version, grant Modified — with a local replica in M state when the
// classifier allows, which is what supports migratory sharing (§2.3.1).
// ref is the back-handle to the home line hl.
func (e *Engine) homeWrite(c, home mem.CoreID, op Op, hl *cacheLine, ref homeRef, t mem.Cycles, res *AccessResult) mem.Cycles {
	ent := &hl.Meta.dir
	la := op.Line

	soleSharer := ent.Sharers.Count() == 0 ||
		(ent.Sharers.Count() == 1 && ent.Sharers.Has(c))

	// Invalidate all other sharers and cluster replicas.
	t = e.invalidateSharers(c, home, la, hl, t, res)

	// The writer's own replica (necessarily not writable, or the access
	// would have hit it) is invalidated as well; the policy sees it as an
	// invalidation so the (replica+home) reuse rule applies. Cluster
	// replicas were already handled through the ReplicaSlices loop. The
	// test is the scheme's cluster replication, not Config.ClusterSize:
	// schemes without cluster replicas keep local ones at any cluster size.
	if e.usesReplicas && !e.clusterRepl {
		wtl := e.tiles[c]
		if l := wtl.llc.Lookup(la); l != nil && !l.Meta.home() {
			reuse := l.Meta.replicaReuse
			if l.Dirty {
				hl.Dirty = true
				e.chargeLLCData(true)
			}
			wtl.llc.Invalidate(la)
			e.clearReplicaBits(c, la) // fillL1 below refreshes the written copy
			e.replicaInvals++
			e.chargeLLCTag(true)
			e.clfDemotions++
			e.policy.OnReplicaGone(&hl.Meta, c, reuse, true)
		}
	}

	// §2.2.2: non-replica sharers other than the writer have not shown
	// enough reuse; the policy resets their counters.
	e.policy.OnWrite(&hl.Meta, c)

	hadCopy := e.tiles[c].l1For(op.Type).Lookup(la) != nil
	ent.ClearSharers()
	ent.AddSharer(c, e.cfg.AckwisePointers)
	ent.SetOwner(c)
	ent.Version++
	hl.Meta.flags |= lineEverWritten
	e.chargeDir(true)
	e.chargeLLCTag(true)
	e.tiles[home].llc.Touch(hl)

	rslice := e.policy.ReplicaSlice(la, c)
	replicate := e.policy.ReplicateOnWrite(&hl.Meta, c, soleSharer) && home != c && rslice != home
	if replicate {
		e.clfPromotions++
	}
	version := ent.Version

	// Upgrade replies (writer already holds an S copy) carry no data.
	flits := e.dataFlits()
	if hadCopy {
		flits = e.ctrlFlits()
	} else {
		t += e.cfg.LLCDataLatency
		e.chargeLLCData(false)
	}

	e.setStamp(home, la, ent, t)

	if home == c {
		e.fillL1(c, op, mem.Modified, true, version, false, ref, false, t)
		return t
	}

	if replicate && e.clusterRepl {
		tr := e.mesh.Send(home, rslice, flits, t)
		tr += e.cfg.LLCDataLatency
		e.insertReplica(rslice, la, mem.Modified, false, version, op.Class, true, ref, tr)
		e.replicaSlices(&hl.Meta).Add(rslice)
		tr = e.mesh.Send(rslice, c, e.dataFlits(), tr)
		e.fillL1(c, op, mem.Modified, true, version, false, ref, true, tr)
		return tr
	}

	tr := e.mesh.Send(home, c, flits, t)
	if replicate {
		tr += e.cfg.LLCDataLatency
		e.insertReplica(c, la, mem.Modified, false, version, op.Class, true, ref, tr)
	}
	e.fillL1(c, op, mem.Modified, true, version, false, ref, replicate, tr)
	return tr
}

// invalidateSharers invalidates every sharer except the writer, collecting
// acknowledgements (with replica-reuse counters, §2.2.3) and feeding the
// policy. With an overflowed ACKwise set the probes are broadcast to every
// core but only actual holders acknowledge (§2.1). It returns the time at
// which all acknowledgements have arrived. hl is the home line of la.
func (e *Engine) invalidateSharers(writer, home mem.CoreID, la mem.LineAddr, hl *cacheLine, t mem.Cycles, res *AccessResult) mem.Cycles {
	ent := &hl.Meta.dir
	// Fan-out targets go into the engine scratch buffer (capacity Cores, so
	// no growth): ascending core order in both modes, exactly the order the
	// sorted Sharers() slice used to produce — message order is part of the
	// simulated outcome (the mesh's link reservations are stateful).
	targets := e.fanout[:0]
	if ent.Overflowed() {
		for i := 0; i < e.cfg.Cores; i++ {
			targets = append(targets, mem.CoreID(i))
		}
	} else {
		for b := ent.Sharers.Bits(); b != 0; b &= b - 1 {
			targets = append(targets, mem.CoreID(bits.TrailingZeros64(b)))
		}
	}
	t0 := t
	maxAck := t
	any := false
	for _, s := range targets {
		if s == writer {
			continue
		}
		wasSharer := ent.Sharers.Has(s)
		tp := e.mesh.Send(home, s, e.ctrlFlits(), t)
		tp += e.cfg.LLCTagLatency
		inv := e.invalidateAt(s, la)
		if !wasSharer && !inv.hadAny {
			continue // broadcast probe of a non-holder: no acknowledgement
		}
		any = true
		flits := e.ctrlFlits()
		if inv.dirty {
			flits = e.dataFlits()
			hl.Dirty = true
			e.chargeLLCData(true)
		}
		back := e.mesh.Send(s, home, flits, tp)
		maxAck = max(maxAck, back)
		if inv.hadReplica {
			e.clfDemotions++
			e.policy.OnReplicaGone(&hl.Meta, s, inv.replicaReuse, true)
		}
		ent.Sharers.Remove(s)
	}
	// Cluster replica slices (cluster size > 1): hierarchical invalidation
	// of the replica and the cluster's L1 copies it serves (§2.3.4). The
	// loop walks an order-preserving snapshot in the engine scratch buffer:
	// ReplicaSlices.Remove swap-deletes mid-iteration, and iterating the
	// live set would visit the slices in a different (outcome-changing)
	// order.
	var rsl []mem.CoreID
	if e.clusterRepl {
		rsl = append(e.rsnap[:0], *e.replicaSlices(&hl.Meta)...)
	}
	for _, rs := range rsl {
		tp := e.mesh.Send(home, rs, e.ctrlFlits(), t)
		tp += e.cfg.LLCTagLatency
		inv := e.invalidateClusterReplica(rs, la, writer)
		flits := e.ctrlFlits()
		if inv.dirty {
			flits = e.dataFlits()
			hl.Dirty = true
			e.chargeLLCData(true)
		}
		back := e.mesh.Send(rs, home, flits, tp)
		maxAck = max(maxAck, back)
		if inv.hadReplica {
			e.clfDemotions++
			e.policy.OnClusterReplicaGone(&hl.Meta, rs, inv.replicaReuse, true)
		}
		e.replicaSlices(&hl.Meta).Remove(rs)
		any = true
	}
	ent.ClearOwner()
	if any {
		res.Breakdown[stats.LLCHomeToSharers] += maxAck - t0
	}
	return maxAck
}

// invResult reports what an invalidation probe found at a core.
type invResult struct {
	hadAny       bool
	hadReplica   bool
	replicaReuse uint8
	dirty        bool
}

// invalidateAt probes core s's L1 caches and LLC slice for la and
// invalidates every copy found; both structures are always probed because
// the directory has a single pointer per core (§2.3.2).
func (e *Engine) invalidateAt(s mem.CoreID, la mem.LineAddr) invResult {
	tl := e.tiles[s]
	var r invResult
	e.chargeL1(true, false)
	e.chargeL1(false, false)
	e.chargeLLCTag(false)
	if rem, ok := tl.l1i.Invalidate(la); ok {
		r.hadAny = true
		r.dirty = r.dirty || rem.Dirty
		e.chargeL1(true, true)
	}
	if rem, ok := tl.l1d.Invalidate(la); ok {
		r.hadAny = true
		r.dirty = r.dirty || rem.Dirty
		e.chargeL1(false, true)
	}
	if e.clusterRepl {
		// Cluster replicas are registered at the home and invalidated
		// hierarchically via invalidateClusterReplica; the per-sharer probe
		// must not remove them behind the home's back.
		return r
	}
	if l := tl.llc.Lookup(la); l != nil && !l.Meta.home() {
		r.hadAny = true
		r.hadReplica = true
		r.replicaReuse = l.Meta.replicaReuse
		r.dirty = r.dirty || l.Dirty
		tl.llc.Invalidate(la)
		e.replicaInvals++
		e.chargeLLCTag(true)
	}
	return r
}

// invalidateClusterReplica invalidates a cluster replica at slice rs and
// back-invalidates the L1 copies of every core in rs's cluster except the
// writer (whose upgrade keeps its own copy).
func (e *Engine) invalidateClusterReplica(rs mem.CoreID, la mem.LineAddr, writer mem.CoreID) invResult {
	var r invResult
	tl := e.tiles[rs]
	e.chargeLLCTag(false)
	if l := tl.llc.Lookup(la); l != nil && !l.Meta.home() {
		r.hadAny = true
		r.hadReplica = true
		r.replicaReuse = l.Meta.replicaReuse
		r.dirty = l.Dirty
		tl.llc.Invalidate(la)
		e.replicaInvals++
		e.chargeLLCTag(true)
	}
	base := (int(rs) / e.cfg.ClusterSize) * e.cfg.ClusterSize
	for i := 0; i < e.cfg.ClusterSize; i++ {
		member := mem.CoreID(base + i)
		if member == writer {
			continue
		}
		mt := e.tiles[member]
		e.chargeL1(true, false)
		e.chargeL1(false, false)
		if rem, ok := mt.l1i.Invalidate(la); ok {
			r.hadAny = true
			r.dirty = r.dirty || rem.Dirty
			e.chargeL1(true, true)
		}
		if rem, ok := mt.l1d.Invalidate(la); ok {
			r.hadAny = true
			r.dirty = r.dirty || rem.Dirty
			e.chargeL1(false, true)
		}
	}
	return r
}

// downgradeAt demotes core s's copies of la to Shared and reports whether
// dirty data was collected. Under cluster replication the owner's E/M
// replica lives at its cluster's replica slice, which is downgraded too.
func (e *Engine) downgradeAt(s mem.CoreID, la mem.LineAddr) bool {
	tl := e.tiles[s]
	dirty := false
	if l := tl.l1i.Lookup(la); l != nil {
		dirty = dirty || l.Dirty
		l.State = mem.Shared
		l.Dirty = false
		e.chargeL1(true, true)
	}
	if l := tl.l1d.Lookup(la); l != nil {
		dirty = dirty || l.Dirty
		l.State = mem.Shared
		l.Dirty = false
		e.chargeL1(false, true)
	}
	dirty = e.downgradeReplicaAt(s, la) || dirty
	if e.clusterRepl {
		if rs := e.policy.ReplicaSlice(la, s); rs != s {
			dirty = e.downgradeReplicaAt(rs, la) || dirty
		}
	}
	return dirty
}

// downgradeReplicaAt demotes the replica copy of la at slice sl (if any) to
// Shared and reports whether it was dirty.
func (e *Engine) downgradeReplicaAt(sl mem.CoreID, la mem.LineAddr) bool {
	l := e.tiles[sl].llc.Lookup(la)
	if l == nil || l.Meta.home() {
		return false
	}
	dirty := l.Dirty
	l.State = mem.Shared
	l.Dirty = false
	e.chargeLLCTag(true)
	return dirty
}

// fillL1 inserts (or upgrades) the line in the requester's L1 and handles
// the displaced victim according to the active scheme. home is the
// back-handle to the line's home, which the copy keeps. replica reports
// whether the caller leaves a replica of the line at c's replica slice,
// and becomes the copy's replica bit.
func (e *Engine) fillL1(c mem.CoreID, op Op, state mem.MESI, dirty bool, version uint64, sharedRO bool, home homeRef, replica bool, t mem.Cycles) {
	if e.opts.CheckInvariants {
		e.homeAt(home, op.Line, c)
	}
	tl := e.tiles[c]
	l1, sib := tl.l1d, tl.l1i
	if op.Type.IsInstr() {
		l1, sib = tl.l1i, tl.l1d
	}
	if existing := l1.Lookup(op.Line); existing != nil {
		existing.State = state
		existing.Dirty = existing.Dirty || dirty
		existing.Meta.version = e.l1Version(version)
		existing.Meta.replica = replica
		l1.Touch(existing)
		e.chargeL1(op.Type.IsInstr(), true)
		return
	}
	idx, victim, evicted := l1.Insert(op.Line, state, lruL1)
	ins := l1.At(idx)
	ins.Dirty = dirty
	ins.Meta = l1Meta{version: e.l1Version(version), home: home, sharedRO: sharedRO, class: op.Class, replica: replica}
	e.chargeL1(op.Type.IsInstr(), true)
	if evicted {
		e.handleL1Evict(c, victim, sib, t)
	}
}

// clearReplicaBits clears the replica bit of core c's L1 copies of la, on
// a path that removes c's replica while those copies stay.
func (e *Engine) clearReplicaBits(c mem.CoreID, la mem.LineAddr) {
	tl := e.tiles[c]
	if l := tl.l1i.Lookup(la); l != nil {
		l.Meta.replica = false
	}
	if l := tl.l1d.Lookup(la); l != nil {
		l.Meta.replica = false
	}
}

// temporalHint implements the TLH-LRU replacement policy's hint channel
// (§2.2.4 cites [15]): every TLHPeriod-th L1 hit to a line sends a one-flit
// hint that refreshes the recency of the line's LLC copy. The hint is off
// the core's critical path but pays network traffic and an LLC tag write —
// the overhead the paper's modified-LRU avoids by reading the in-cache
// directory instead.
func (e *Engine) temporalHint(c mem.CoreID, line *l1Line, t mem.Cycles) {
	if e.cfg.Replacement != config.TLHLRU {
		return
	}
	period := e.cfg.TLHPeriod
	if period <= 0 {
		period = 16
	}
	line.Meta.hintCount++
	if int(line.Meta.hintCount) < period {
		return
	}
	line.Meta.hintCount = 0
	la := line.Addr
	// The LLC copy to refresh: the local replica if present, else the home.
	if l := e.tiles[c].llc.Lookup(la); l != nil {
		e.tiles[c].llc.Touch(l)
		e.chargeLLCTag(true)
		return
	}
	r := line.Meta.home
	e.mesh.Send(c, r.slice(), e.ctrlFlits(), t)
	e.tiles[r.slice()].llc.Touch(e.homeAt(r, la, c))
	e.chargeLLCTag(true)
}
