package resultstore

import "time"

// OpObserver receives the wall-clock latency of one persistent-backend
// operation: op is "get", "put", "delete" or "index", backend the
// backend's kind ("disk"). Implementations
// must be fast and must not call back into the Store.
type OpObserver func(op, backend string, d time.Duration)

// opObserver pairs the callback with the backend kind, resolved once at
// installation so the per-op path never takes the backend's stats lock.
type opObserver struct {
	fn   OpObserver
	kind string
}

// SetOpObserver installs (or, with nil, removes) the store's backend
// operation observer — the hook the serving layer uses to feed its
// lard_store_op_seconds histogram. Install before traffic for complete
// coverage; the store never observes memory-layer hits (they are map
// lookups, not I/O) and a memory-only store therefore reports nothing.
func (s *Store) SetOpObserver(fn OpObserver) {
	if fn == nil || s.backend == nil {
		s.opObs.Store(nil)
		return
	}
	s.opObs.Store(&opObserver{fn: fn, kind: s.backend.Stats().Kind})
}

// observeOp reports one backend operation to the installed observer, if
// any. Call sites bracket only the backend call itself, never the
// store's own locking or decode work.
func (s *Store) observeOp(op string, start time.Time) {
	if o := s.opObs.Load(); o != nil {
		o.fn(op, o.kind, time.Since(start))
	}
}
