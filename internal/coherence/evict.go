package coherence

import (
	"math/bits"

	"lard/internal/mem"
)

// insertHomeLine allocates the home copy (with a fresh directory entry) at
// the home slice after an off-chip fill, disposing of the displaced victim.
// The dispose runs first, so an entry recycled from the victim can serve
// the incoming line immediately.
func (e *Engine) insertHomeLine(home mem.CoreID, op Op, t mem.Cycles) *cacheLine {
	tl := e.tiles[home]
	ins, victim, evicted := tl.llc.Insert(op.Line, mem.Shared, e.llcVictim(tl))
	if evicted {
		e.dispose(home, victim, t)
	}
	ins.Meta = llcMeta{
		home:  true,
		dir:   e.newDirEntry(),
		class: op.Class,
	}
	return ins
}

// insertReplica allocates a replica at the given slice (never the line's
// home slice), initializing the replica-reuse counter to 1 (§2.2.1).
func (e *Engine) insertReplica(slice mem.CoreID, la mem.LineAddr, state mem.MESI, dirty bool, version uint64, class mem.DataClass, everWritten bool, t mem.Cycles) {
	tl := e.tiles[slice]
	if existing := tl.llc.Lookup(la); existing != nil {
		// Refresh of a replica that survived (e.g. a same-core refetch).
		existing.State = state
		existing.Dirty = existing.Dirty || dirty
		existing.Meta.version = version
		tl.llc.Touch(existing)
		e.chargeLLCTag(true)
		e.chargeLLCData(true)
		return
	}
	ins, victim, evicted := tl.llc.Insert(la, state, e.llcVictim(tl))
	if evicted {
		e.dispose(slice, victim, t)
	}
	ins.Dirty = dirty
	ins.Meta = llcMeta{
		replicaReuse: 1,
		version:      version,
		everWritten:  everWritten,
		class:        class,
	}
	e.replicaInserts[class]++
	e.chargeLLCTag(true)
	e.chargeLLCData(true)
}

// dispose routes an evicted LLC line to the correct handler.
func (e *Engine) dispose(slice mem.CoreID, victim cacheLine, t mem.Cycles) {
	if victim.Meta.home {
		e.disposeHome(slice, victim, t)
	} else {
		e.replicaEvicted(slice, victim, t)
	}
}

// evictHomeLine removes the home copy of la from slice home (page
// reclassification path) and disposes of it.
func (e *Engine) evictHomeLine(home mem.CoreID, la mem.LineAddr, t mem.Cycles) {
	tl := e.tiles[home]
	l := tl.llc.Lookup(la)
	if l == nil || !l.Meta.home {
		return
	}
	victim := *l
	tl.llc.Invalidate(la)
	e.rehomed++
	e.disposeHome(home, victim, t)
}

// disposeHome retires an evicted home line: the LLC is inclusive, so every
// cached copy (L1s, local replicas, cluster replicas) is invalidated, and
// dirty data is written back off-chip. Eviction traffic is charged to the
// network/DRAM models but not to any requester's critical path (write-back
// buffers hide it); the paper's replacement policy keeps these
// back-invalidations rare (§2.2.3-2.2.4).
func (e *Engine) disposeHome(slice mem.CoreID, victim cacheLine, t mem.Cycles) {
	la := victim.Addr
	ent := victim.Meta.dir
	dirty := victim.Dirty

	// Same alloc-free fan-out as invalidateSharers: engine scratch buffer,
	// ascending core order in both modes (the order the sorted Sharers()
	// slice used to produce).
	targets := e.fanout[:0]
	if ent.Sharers.Overflowed() {
		for i := 0; i < e.cfg.Cores; i++ {
			targets = append(targets, mem.CoreID(i))
		}
	} else {
		for b := ent.Sharers.Bits(); b != 0; b &= b - 1 {
			targets = append(targets, mem.CoreID(bits.TrailingZeros64(b)))
		}
	}
	for _, s := range targets {
		wasSharer := ent.Sharers.Has(s)
		e.mesh.Send(slice, s, e.ctrlFlits(), t)
		inv := e.invalidateAt(s, la)
		if !wasSharer && !inv.hadAny {
			continue
		}
		flits := e.ctrlFlits()
		if inv.dirty {
			flits = e.dataFlits()
			dirty = true
		}
		e.mesh.Send(s, slice, flits, t)
	}
	for _, rs := range ent.ReplicaSlices {
		e.mesh.Send(slice, rs, e.ctrlFlits(), t)
		inv := e.invalidateClusterReplica(rs, la, -1)
		flits := e.ctrlFlits()
		if inv.dirty {
			flits = e.dataFlits()
			dirty = true
		}
		e.mesh.Send(rs, slice, flits, t)
	}
	if e.runs != nil {
		e.runs.evicted(la)
	}
	if dirty {
		ctrl := e.dram.ControllerFor(la)
		arr := e.mesh.Send(slice, e.dram.TileOf(ctrl), e.dataFlits(), t)
		e.dram.Access(ctrl, arr)
	}
	// The entry is dead: nothing references it past this point (the home
	// line holding it was invalidated before disposeHome was called).
	e.recycleEntry(ent)
}

// replicaEvicted retires an evicted replica line: the local L1 copies are
// back-invalidated (§2.2.3), an acknowledgement carrying the replica-reuse
// counter is sent to the home, the directory drops the core, and the
// classifier re-evaluates the core's replica status using the replica reuse
// alone (eviction rule of Figure 3).
func (e *Engine) replicaEvicted(slice mem.CoreID, victim cacheLine, t mem.Cycles) {
	e.replicaEvicts++
	la := victim.Addr
	dirty := victim.Dirty

	// Back-invalidate the L1 copies served by this replica.
	if e.clusterRepl {
		base := (int(slice) / e.cfg.ClusterSize) * e.cfg.ClusterSize
		for i := 0; i < e.cfg.ClusterSize; i++ {
			mt := e.tiles[base+i]
			if rem, ok := mt.l1i.Invalidate(la); ok {
				dirty = dirty || rem.Dirty
				e.chargeL1(true, true)
			}
			if rem, ok := mt.l1d.Invalidate(la); ok {
				dirty = dirty || rem.Dirty
				e.chargeL1(false, true)
			}
		}
	} else if e.cfg.KeepL1OnReplicaEvict {
		// §2.2.3 alternative strategy: the L1 copy stays valid; the reuse
		// counter travels now and a second acknowledgement follows when the
		// L1 line is finally evicted or invalidated. The paper rejected the
		// extra message type for a negligible gain; this path exists to
		// verify that claim (see the replica-eviction ablation).
		e.chargeL1(true, false)
		e.chargeL1(false, false)
	} else {
		tl := e.tiles[slice]
		if rem, ok := tl.l1i.Invalidate(la); ok {
			dirty = dirty || rem.Dirty
			e.chargeL1(true, true)
		}
		if rem, ok := tl.l1d.Invalidate(la); ok {
			dirty = dirty || rem.Dirty
			e.chargeL1(false, true)
		}
	}

	home := e.homeOfLine(la, slice)
	flits := e.ctrlFlits()
	if dirty {
		flits = e.dataFlits()
	}
	e.mesh.Send(slice, home, flits, t)

	hl := e.homeEntry(home, la)
	if hl == nil {
		return // home copy already gone (its disposal invalidated us first)
	}
	ent := hl.Meta.dir
	if dirty {
		hl.Dirty = true
		e.chargeLLCData(true)
	}
	if e.clusterRepl {
		ent.RemoveReplicaSlice(slice)
		e.clfDemotions++
		e.policy.OnClusterReplicaGone(ent, slice, victim.Meta.replicaReuse, false)
	} else {
		// With the keep-L1 strategy the core remains a sharer while its L1
		// still holds the line; the second acknowledgement (sent from
		// handleL1Evict) removes it later.
		if !(e.cfg.KeepL1OnReplicaEvict && e.hasL1Copy(e.tiles[slice], la)) {
			ent.Sharers.Remove(slice)
			if ent.HasOwner && ent.Owner == slice {
				ent.ClearOwner()
			}
		}
		e.clfDemotions++
		e.policy.OnReplicaGone(ent, slice, victim.Meta.replicaReuse, false)
	}
	e.chargeDir(true)
}

// handleL1Evict retires an L1 victim according to §2.2.3 and the active
// scheme: merge into a resident home/replica copy, victim-replicate (VR,
// ASR), or acknowledge the home (with a write-back when dirty). Eviction
// traffic is off the requester's critical path.
func (e *Engine) handleL1Evict(c mem.CoreID, victim l1Line, t mem.Cycles) {
	la := victim.Addr
	tl := e.tiles[c]

	// Home copy resident in the local slice: merge and update the directory
	// in place (no messages).
	if l := tl.llc.Lookup(la); l != nil && l.Meta.home {
		ent := l.Meta.dir
		if victim.Dirty {
			l.Dirty = true
			e.chargeLLCData(true)
		}
		if !e.hasL1Copy(tl, la) {
			ent.Sharers.Remove(c)
			if ent.HasOwner && ent.Owner == c {
				ent.ClearOwner()
			}
		}
		e.chargeDir(true)
		return
	}

	// Replica resident at the replica slice: merge (§2.2.3); the core stays
	// a sharer through its replica, so the home is not notified.
	if e.usesReplicas {
		rslice := e.policy.ReplicaSlice(la, c)
		if l := e.tiles[rslice].llc.Lookup(la); l != nil && !l.Meta.home {
			if rslice != c {
				flits := e.ctrlFlits()
				if victim.Dirty {
					flits = e.dataFlits()
				}
				e.mesh.Send(c, rslice, flits, t)
			}
			e.chargeLLCTag(false)
			if victim.Dirty {
				l.Dirty = true
				if victim.State == mem.Modified {
					l.State = mem.Modified
				}
				e.chargeLLCData(true)
			}
			return
		}
	}

	// Victim replication (VR always, ASR selectively, §3.3): the policy may
	// absorb the victim into the local slice, completing its disposal.
	if e.policy.VictimReplicate(c, victim, t) {
		return
	}

	// Default: acknowledge the home (write-back when dirty).
	home := e.homeOfLine(la, c)
	flits := e.ctrlFlits()
	if victim.Dirty {
		flits = e.dataFlits()
	}
	e.mesh.Send(c, home, flits, t)
	hl := e.homeEntry(home, la)
	if hl == nil {
		return
	}
	ent := hl.Meta.dir
	if victim.Dirty {
		hl.Dirty = true
		e.chargeLLCData(true)
	}
	if !e.hasL1Copy(tl, la) {
		ent.Sharers.Remove(c)
		if ent.HasOwner && ent.Owner == c {
			ent.ClearOwner()
		}
	}
	e.chargeDir(true)
}

// tryVictimInsert places an L1 victim into the local LLC slice as a replica
// under the VR insertion filter (invalid way, another replica, or a
// sharer-free home line; otherwise the victim is dropped, §3.3).
func (e *Engine) tryVictimInsert(c mem.CoreID, victim l1Line, t mem.Cycles) bool {
	tl := e.tiles[c]
	la := victim.Addr
	ways := tl.llc.WaysOf(la)
	free := false
	for i := range ways {
		if !ways[i].State.Valid() {
			free = true
			break
		}
	}
	if !free && victimAllowedVR(ways) < 0 {
		// No permissible way: drop the victim; notify the home instead.
		return false
	}
	ins, v2, evicted := tl.llc.Insert(la, victim.State, victimAllowedVR)
	if evicted {
		e.dispose(c, v2, t)
	}
	ins.Dirty = victim.Dirty
	ins.Meta = llcMeta{
		replicaReuse: 1,
		version:      victim.Meta.version,
		everWritten:  !victim.Meta.sharedRO,
		class:        victim.Meta.class,
	}
	e.replicaInserts[victim.Meta.class]++
	e.chargeLLCTag(true)
	e.chargeLLCData(true)
	return true
}
