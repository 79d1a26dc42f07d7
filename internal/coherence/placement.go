package coherence

import (
	"lard/internal/mem"
)

// pageClass is the R-NUCA OS-level page classification (first-touch private,
// promoted to shared on a second core's access; instruction pages are
// classified by fetch).
type pageClass uint8

const (
	pagePrivate pageClass = iota
	pageShared
	pageInstr
)

// pageInfo is one page-table record.
type pageInfo struct {
	class pageClass
	owner mem.CoreID // first-touch core, meaningful while private
}

// pageTable is the OS page table consulted by R-NUCA-style placement.
type pageTable struct {
	pages map[mem.PageAddr]*pageInfo
}

func newPageTable() *pageTable {
	return &pageTable{pages: make(map[mem.PageAddr]*pageInfo)}
}

// classify returns the page record for the access, creating or promoting it
// as needed. It reports reclassified=true when the page just transitioned
// private -> shared (the caller must flush the page's lines from the old
// owner's slice and reports the old owner).
func (pt *pageTable) classify(line mem.LineAddr, c mem.CoreID, instr bool) (info *pageInfo, reclassified bool, oldOwner mem.CoreID) {
	page := mem.PageOfLine(line)
	p, ok := pt.pages[page]
	if !ok {
		p = &pageInfo{owner: c}
		if instr {
			p.class = pageInstr
		}
		pt.pages[page] = p
		return p, false, 0
	}
	if p.class == pagePrivate && p.owner != c {
		old := p.owner
		p.class = pageShared
		return p, true, old
	}
	if p.class == pageInstr && !instr {
		// Data access to an instruction page: the synthetic workloads never
		// do this; treat it as a programming error in the generator.
		panic("coherence: data access to an instruction-classified page")
	}
	return p, false, 0
}

// homeFor computes the home slice of a line for the active scheme, updating
// the page table when R-NUCA placement is in effect. A page
// reclassification flushes the old owner's copies of the page on the spot,
// at cycle t, before the home is returned.
func (e *Engine) homeFor(op Op, c mem.CoreID, t mem.Cycles) mem.CoreID {
	if !e.rnucaPlacement {
		return e.interleave(op.Line)
	}
	info, reclassified, oldOwner := e.pages.classify(op.Line, c, op.Type.IsInstr())
	if reclassified {
		e.flushPage(mem.PageOfLine(op.Line), oldOwner, t)
	}
	return e.pageHome(info, op.Line, c)
}

// pageHome is R-NUCA-style placement: the home slice of line la, on a page
// classified as info, for requester c.
func (e *Engine) pageHome(info *pageInfo, la mem.LineAddr, c mem.CoreID) mem.CoreID {
	switch {
	case info.class == pageInstr && e.instrClusterHome:
		// Rotational interleaving within the requester's 4-core cluster.
		return e.instrHome(la, c)
	case info.class == pagePrivate:
		return info.owner
	default:
		// Shared pages (and, for the locality-aware scheme, instructions,
		// which it treats like any other shared data, §2.1).
		return e.interleave(la)
	}
}

// interleave is the S-NUCA home function: lines striped across all slices.
func (e *Engine) interleave(line mem.LineAddr) mem.CoreID {
	return mem.CoreID(uint64(line) % uint64(e.cfg.Cores))
}

// instrClusterSize is R-NUCA's instruction replication cluster (4 cores).
const instrClusterSize = 4

// instrHome returns the R-NUCA rotational-interleaving home of an
// instruction line for a requester: one slice within the requester's 4-core
// cluster, so each cluster holds one copy of the line.
func (e *Engine) instrHome(line mem.LineAddr, c mem.CoreID) mem.CoreID {
	clusterBase := (int(c) / instrClusterSize) * instrClusterSize
	return mem.CoreID(clusterBase + int(uint64(line)%instrClusterSize))
}

// replicaSliceFor returns the LLC slice where a cluster-aware policy would
// place a replica for requester c: the local slice for cluster size 1, or
// the rotationally-interleaved member of c's cluster otherwise (§2.3.4).
func (e *Engine) replicaSliceFor(line mem.LineAddr, c mem.CoreID) mem.CoreID {
	if e.cfg.ClusterSize <= 1 {
		return c
	}
	base := (int(c) / e.cfg.ClusterSize) * e.cfg.ClusterSize
	return mem.CoreID(base + int(uint64(line)%uint64(e.cfg.ClusterSize)))
}

// flushPage invalidates every line of page p homed at the old owner's slice
// (R-NUCA private->shared reclassification): home copies and all their
// cached copies are invalidated, dirty data is written back off-chip, and
// message energy is charged. The latency is charged to the requester by the
// caller as part of the triggering transaction.
func (e *Engine) flushPage(p mem.PageAddr, oldOwner mem.CoreID, t mem.Cycles) {
	slice := e.tiles[oldOwner].llc
	lines := slice.CollectIf(func(l *cacheLine) bool {
		return l.Meta.home() && mem.PageOfLine(l.Addr) == p
	})
	for _, la := range lines {
		e.evictHomeLine(oldOwner, la, t)
	}
}
