package coherence

import (
	"lard/internal/cache"
	"lard/internal/core"
	"lard/internal/directory"
	"lard/internal/mem"
	"lard/internal/stats"
)

// Aliases keeping the engine code readable.
type (
	l1Cache        = cache.Cache[l1Meta]
	dirEntry       = directory.Entry
	coreClassifier = core.Classifier
)

// lruL1 is the shared L1 victim selector (the L1s use plain LRU).
var lruL1 = cache.LRU[l1Meta]()

// satReuse increments a replica-reuse counter, saturating at rt (hardware
// sizes the counter for the threshold, §2.4.1).
func satReuse(v uint8, rt int) uint8 {
	if int(v) >= rt {
		return v
	}
	return v + 1
}

// homeRecord is a home line's directory state in one allocation: the
// in-cache directory entry and the Limited-k locality list the paper keeps
// inside that entry (§2.2.5, Figure 5; §2.4.1). Under RT with k > 0 every
// directory entry is born in a record, with Classifier pointing at the
// record's own lim, so a home access follows one pointer from the LLC line
// instead of three. A record is never copied: the engine hands out
// &rec.dirEntry, and that pointer keeps the whole record alive on the free
// list.
type homeRecord struct {
	dirEntry
	lim core.Limited
}

// lineState is the per-line policy state an entry's Classifier slot holds:
// a locality classifier, or EHC's hit counter. It is reset and kept when
// its entry is recycled.
type lineState interface{ Reset() }

// classifierOf returns the locality classifier attached to a directory
// entry. A Limited-k classifier was attached at the entry's birth; the
// Complete classifier (k = 0) is created on first use and then stays with
// its entry through every recycle. Either way it starts in the Initial state
// of Figure 3: all cores in non-replica mode.
func (e *Engine) classifierOf(ent *dirEntry) coreClassifier {
	if ent.Classifier == nil {
		ent.Classifier = core.New(e.clfParams)
	}
	return ent.Classifier.(coreClassifier)
}

// newDirEntry returns a directory entry for a fresh home fill, recycled
// from the free list when one is available. A pooled entry was reset on
// recycle, so it is indistinguishable from a newly built one.
func (e *Engine) newDirEntry() *dirEntry {
	e.dirOcc.Inc()
	if n := len(e.entFree); n > 0 {
		ent := e.entFree[n-1]
		e.entFree = e.entFree[:n-1]
		return ent
	}
	if !e.limitedRecords {
		return directory.NewEntry(e.cfg.AckwisePointers)
	}
	rec := &homeRecord{dirEntry: directory.Entry{Sharers: directory.NewSharerSet(e.cfg.AckwisePointers)}}
	rec.lim.Init(e.clfParams)
	rec.Classifier = &rec.lim
	return &rec.dirEntry
}

// recycleEntry returns a dead home entry to the engine free list, with its
// per-line policy state reset and still attached. Only disposeHome may call
// it: that is the single point where a directory entry leaves the simulated
// machine, and after it returns no live reference to the entry remains
// (home lines are the only holders of entry pointers, and the holder was
// just invalidated).
func (e *Engine) recycleEntry(ent *dirEntry) {
	e.dirOcc.Dec()
	st, _ := ent.Classifier.(lineState)
	ent.Reset(e.cfg.AckwisePointers)
	if st != nil {
		st.Reset()
		ent.Classifier = st
	}
	e.entFree = append(e.entFree, ent)
}

// demoteCluster applies a replica-loss classifier event to every core of the
// cluster served by replica slice rs — the flat approximation of the
// hierarchical per-core tracking the paper sketches for cluster-level
// replication (§2.3.4; cluster size 1 never reaches here).
func (e *Engine) demoteCluster(clf coreClassifier, rs mem.CoreID, reuse uint8, invalidation bool) {
	base := (int(rs) / e.cfg.ClusterSize) * e.cfg.ClusterSize
	for i := 0; i < e.cfg.ClusterSize; i++ {
		member := mem.CoreID(base + i)
		if clf.Tracked(member) && clf.ModeOf(member) {
			clf.OnReplicaGone(member, reuse, invalidation)
		}
	}
}

// runTracker implements the Figure-1 measurement: per (line, core) run
// lengths at the LLC, ended by a conflicting access from another core (at
// least one of the accesses being a write) or by the line's eviction from
// the LLC home.
type runTracker struct {
	runs map[mem.LineAddr]*lineRuns
	hist stats.RunLengthHist
}

type lineRuns struct {
	class   mem.DataClass
	entries []runEntry
}

type runEntry struct {
	core  mem.CoreID
	count uint64
	wrote bool
}

func newRunTracker() *runTracker {
	return &runTracker{runs: make(map[mem.LineAddr]*lineRuns)}
}

// record notes one LLC access to la by core c. Two accesses conflict when
// they come from different cores and at least one is a write, so a write by
// c ends every other core's run, and any access by c ends every other core's
// write-containing run.
func (r *runTracker) record(la mem.LineAddr, c mem.CoreID, write bool, class mem.DataClass) {
	lr, ok := r.runs[la]
	if !ok {
		lr = &lineRuns{class: class}
		r.runs[la] = lr
	}
	lr.class = class
	kept := lr.entries[:0]
	for _, en := range lr.entries {
		if en.core != c && (write || en.wrote) {
			r.flushRun(lr.class, en)
		} else {
			kept = append(kept, en)
		}
	}
	lr.entries = kept
	for i := range lr.entries {
		if lr.entries[i].core == c {
			lr.entries[i].count++
			lr.entries[i].wrote = lr.entries[i].wrote || write
			return
		}
	}
	lr.entries = append(lr.entries, runEntry{core: c, count: 1, wrote: write})
}

// evicted ends every outstanding run of la (LLC home eviction).
func (r *runTracker) evicted(la mem.LineAddr) {
	lr, ok := r.runs[la]
	if !ok {
		return
	}
	for _, en := range lr.entries {
		r.flushRun(lr.class, en)
	}
	delete(r.runs, la)
}

func (r *runTracker) flushRun(class mem.DataClass, en runEntry) {
	if en.count == 0 {
		return
	}
	r.hist[class][stats.BucketOf(en.count)] += en.count
}

// finish flushes all outstanding runs and returns the histogram.
func (r *runTracker) finish() *stats.RunLengthHist {
	for la := range r.runs {
		r.evicted(la)
	}
	return &r.hist
}

// RunHistogram finalizes and returns the Figure-1 histogram; it is only
// meaningful when the engine was created with TrackRuns.
func (e *Engine) RunHistogram() *stats.RunLengthHist {
	if e.runs == nil {
		return &stats.RunLengthHist{}
	}
	return e.runs.finish()
}
