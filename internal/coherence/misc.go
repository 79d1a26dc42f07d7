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
	l1Cache  = cache.Cache[l1Meta]
	dirEntry = directory.Entry
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

// sideRecord is the state of a home line that does not fit its LLC way: a
// per-line classifier too large to inline (the Complete classifier, or a
// Limited-k list with k > core.InlineK) and the cluster-replica set. Only
// an engine whose scheme needs one (sideRecords) gives every home line a
// record, named by the line's llcMeta.link. A dead line's record goes to
// the free list with its classifier reset, so a run allocates one record
// per line of its peak directory population, and the next line born
// starts in the Initial state of Figure 3.
type sideRecord struct {
	clf    core.Classifier
	slices directory.ReplicaSlices
}

// newSide returns the index of a side record for a home line being born:
// a dead line's, or a new one with the policy's fresh classifier.
func (e *Engine) newSide() uint32 {
	if n := len(e.sideFree); n > 0 {
		i := e.sideFree[n-1]
		e.sideFree = e.sideFree[:n-1]
		return i
	}
	e.side = append(e.side, sideRecord{clf: e.policy.SideClassifier()})
	return uint32(len(e.side) - 1)
}

// freeSide returns side record i of a dead home line to the free list.
func (e *Engine) freeSide(i uint32) {
	r := &e.side[i]
	if r.clf != nil {
		r.clf.Reset()
	}
	r.slices = r.slices[:0]
	e.sideFree = append(e.sideFree, i)
}

// replicaSlices returns the cluster-replica set of home line m. Only
// cluster replication registers slices, and it always keeps side records.
func (e *Engine) replicaSlices(m *llcMeta) *directory.ReplicaSlices {
	return &e.side[m.link].slices
}

// demoteCluster applies a replica-loss classifier event to every core of the
// cluster served by replica slice rs — the flat approximation of the
// hierarchical per-core tracking the paper sketches for cluster-level
// replication (§2.3.4; cluster size 1 never reaches here).
func (e *Engine) demoteCluster(clf core.Classifier, rs mem.CoreID, reuse uint8, invalidation bool) {
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
