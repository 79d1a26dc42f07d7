package coherence

import (
	"fmt"

	"lard/internal/mem"
)

// Home stamps. A request to a line waits at the home until the previous
// transaction on the line's home entry has finished: begin = max(arrive,
// NextFree). The stamp is the NextFree field of the directory entry, so the
// common case reads it from the line the home access looks up anyway. Only
// a stamp whose line left its slice needs a table of its own, and only
// while the stamp can still win that max: the watermark tells which.

// Advance tells the engine that no later Access will be issued before cycle
// now; the simulator calls it with the event times it pops. Every later
// request therefore arrives at a home at or after now, and a home stamp at
// or below now can never delay it again: disposeHome forgets such stamps
// instead of spilling them. Advance changes no simulated outcome. An engine
// that is never advanced keeps its watermark at 0, spills every non-zero
// stamp, and stays exact.
func (e *Engine) Advance(now mem.Cycles) {
	if e.opts.CheckInvariants && now < e.watermark {
		panic(fmt.Sprintf("coherence: Advance(%d) behind the watermark %d", now, e.watermark))
	}
	e.watermark = now
}

// homeStamp returns the stamp a request for la meets at slice home: the
// entry's when the home line hl is resident, else the stamp spilled when the
// line left the slice (0 when none). A spilled stamp is removed as it is
// read: the caller refills the line, and its new entry carries the stamp
// from the end of this transaction on.
func (e *Engine) homeStamp(home mem.CoreID, la mem.LineAddr, hl *cacheLine) mem.Cycles {
	if hl != nil {
		return hl.Meta.dir.NextFree
	}
	spill := e.tiles[home].spill
	free := spill[la]
	delete(spill, la)
	return free
}

// setStamp records that the home entry ent of la at slice home is free for
// the next request at cycle t.
func (e *Engine) setStamp(home mem.CoreID, la mem.LineAddr, ent *dirEntry, t mem.Cycles) {
	ent.NextFree = t
	if e.stampOracle != nil {
		e.stampOracle[home][la] = t
	}
}

// spillStamp keeps the stamp of a home line leaving slice when it lies
// past the watermark, where a later request could still wait on it.
func (e *Engine) spillStamp(slice mem.CoreID, la mem.LineAddr, ent *dirEntry) {
	if ent.NextFree <= e.watermark {
		return
	}
	tl := e.tiles[slice]
	if tl.spill == nil {
		tl.spill = make(map[mem.LineAddr]mem.Cycles)
	}
	tl.spill[la] = ent.NextFree
	e.spilled++
}

// checkStamp is the stamp oracle of CheckInvariants: the transaction begin
// computed from entries and spill tables must equal the one the full
// per-slice stamp map gives.
func (e *Engine) checkStamp(home mem.CoreID, la mem.LineAddr, arrive, begin mem.Cycles) {
	if want := max(arrive, e.stampOracle[home][la]); begin != want {
		panic(fmt.Sprintf("coherence: line %#x at home %d begins at cycle %d, the stamp map says %d",
			uint64(la), home, begin, want))
	}
}
