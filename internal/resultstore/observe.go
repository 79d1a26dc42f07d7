package resultstore

import "time"

// OpObserver receives the wall-clock latency of one persistent-backend
// operation: op is "get", "put", "delete" or "index". It is the one count
// of backend calls: each call is observed exactly once. Implementations
// must be fast and must not call back into the Store.
type OpObserver func(op string, d time.Duration)

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
	s.opObs.Store(&fn)
}

// observeOp reports one backend operation to the installed observer, if
// any. Call sites bracket only the backend call itself, never the
// store's own locking or decode work.
func (s *Store) observeOp(op string, start time.Time) {
	if fn := s.opObs.Load(); fn != nil {
		(*fn)(op, time.Since(start))
	}
}
