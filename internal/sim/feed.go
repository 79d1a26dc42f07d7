package sim

import (
	"runtime"
	"sync/atomic"

	"lard/internal/trace"
)

// ringDepth is the number of opChunk-operation slots in each core's trace
// ring: the chunk the event loop reads and one filled ahead of it. In a
// 64-core run the helper fills about four fifths of the chunks and the
// loop the rest, those it reaches before the helper's next sweep. Four
// slots cut the loop's share to 2% and the run time by a few percent
// more, for three times the ring's memory.
const ringDepth = 2

// feeder fills each core's trace chunks ahead of the event loop. Trace
// generation shares no state with the engine, so a helper goroutine can
// run it while the loop simulates; the loop still consumes every stream in
// order, one chunk at a time, so the run is the same whoever filled it.
//
// A per-core claim (one CAS) guards the stream: whoever holds it fills the
// ring's next free slot with Stream.Fill, so the helper and the loop share
// one fill path. The loop never waits for the helper to start: when a
// core's next chunk is not ready it claims the stream and fills the chunk
// itself, and it waits only while the helper is filling that very chunk.
// The helper sweeps the cores, parks when it filled nothing, and the loop
// wakes it once per len(cores) chunks it frees.
type feeder struct {
	streams []*trace.Stream
	// ring holds every core's slots: core c's slot s is the opChunk
	// operations at (c*ringDepth+s)*opChunk.
	ring  []trace.Op
	cores []coreFeed

	// wake carries the loop's nudges to the parked helper. Its buffer of
	// one keeps a nudge sent while the helper sweeps, so none is lost.
	wake chan struct{}
	// untilWake counts the chunks the loop frees before its next nudge.
	// Only the loop touches it.
	untilWake int
	quit      atomic.Bool
	exited    chan struct{}
}

// coreFeed is one core's ring state. Chunk k of the stream lives in slot
// k%ringDepth; it may be filled once the loop has freed chunk k-ringDepth.
type coreFeed struct {
	claim  atomic.Bool
	filled atomic.Uint64 // chunks published, in stream order
	freed  atomic.Uint64 // chunks the loop has finished reading
	// count is each slot's operation count and done marks a stream whose
	// empty chunk is published. The claim holder writes both, and count
	// before filled publishes it.
	count [ringDepth]int
	done  bool
}

func newFeeder(streams []*trace.Stream) *feeder {
	n := len(streams)
	return &feeder{
		streams:   streams,
		ring:      make([]trace.Op, n*ringDepth*opChunk),
		cores:     make([]coreFeed, n),
		wake:      make(chan struct{}, 1),
		untilWake: n,
		exited:    make(chan struct{}),
	}
}

// fillNext fills core c's next chunk into its slot and publishes it. The
// caller holds c's claim. It reports false, filling nothing, when the ring
// is full or the stream already ended.
func (f *feeder) fillNext(c int) bool {
	cf := &f.cores[c]
	k := cf.filled.Load()
	if cf.done || k == cf.freed.Load()+ringDepth {
		return false
	}
	s := int(k % ringDepth)
	off := (c*ringDepth + s) * opChunk
	cf.count[s] = f.streams[c].Fill(f.ring[off : off+opChunk])
	cf.done = cf.count[s] == 0
	cf.filled.Store(k + 1)
	return true
}

// take frees core c's chunk k-1 and returns the ring bounds of chunk k,
// filling it on the loop's goroutine when it is not ready. An empty range
// means the stream has ended. Only the loop calls take, with k counting
// up from 0.
func (f *feeder) take(c int, k uint64) (lo, hi int) {
	cf := &f.cores[c]
	if k > 0 {
		cf.freed.Store(k)
		if f.untilWake--; f.untilWake == 0 {
			f.untilWake = len(f.cores)
			f.nudge()
		}
	}
	for cf.filled.Load() <= k {
		if cf.claim.CompareAndSwap(false, true) {
			if cf.filled.Load() == k {
				f.fillNext(c)
			}
			cf.claim.Store(false)
		} else {
			// The helper is filling chunk k right now.
			runtime.Gosched()
		}
	}
	s := int(k % ringDepth)
	lo = (c*ringDepth + s) * opChunk
	return lo, lo + cf.count[s]
}

// nudge wakes the helper if it is parked; a nudge already pending makes
// it a no-op.
func (f *feeder) nudge() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// run is the helper goroutine: it sweeps the cores, filling every free
// slot whose stream it can claim, and parks after a sweep that filled
// nothing, until the loop nudges it or stop ends it.
func (f *feeder) run() {
	defer close(f.exited)
	for !f.quit.Load() {
		filled := false
		for c := range f.cores {
			cf := &f.cores[c]
			if f.quit.Load() {
				break
			}
			if cf.filled.Load() == cf.freed.Load()+ringDepth || !cf.claim.CompareAndSwap(false, true) {
				continue
			}
			for f.fillNext(c) {
				filled = true
			}
			cf.claim.Store(false)
		}
		if !filled {
			<-f.wake
		}
	}
}

// stop ends the helper and waits for it to exit. After stop no goroutine
// touches the streams.
func (f *feeder) stop() {
	f.quit.Store(true)
	f.nudge()
	<-f.exited
}
