package obs

import "sync"

// registry is the bounded per-run registry behind both Tracer and
// Timelines: at most max entries keyed by run id, kept in insertion
// order. Putting a known id replaces its value but keeps the slot's age
// (a retried run); putting a new id into a full registry first evicts the
// oldest finished entry, or the oldest outright when none has finished,
// so a long-lived server cannot grow without limit.
type registry[V any] struct {
	mu       sync.Mutex
	vals     map[string]V
	order    []string // insertion order, for eviction
	max      int
	finished func(V) bool
}

func newRegistry[V any](max int, finished func(V) bool) *registry[V] {
	return &registry[V]{vals: make(map[string]V), max: max, finished: finished}
}

// put stores v under id, restarting the slot in place when id is known.
func (r *registry[V]) put(id string, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.vals[id]; !exists {
		if len(r.order) >= r.max {
			r.evictLocked()
		}
		r.order = append(r.order, id)
	}
	r.vals[id] = v
}

// evictLocked drops one entry: the oldest finished one if any, else the
// oldest outright.
func (r *registry[V]) evictLocked() {
	for i, id := range r.order {
		if r.finished(r.vals[id]) {
			delete(r.vals, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
	if len(r.order) > 0 {
		delete(r.vals, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *registry[V]) get(id string) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vals[id]
	return v, ok
}

func (r *registry[V]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vals)
}

// values snapshots the held entries, in no particular order.
func (r *registry[V]) values() []V {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := make([]V, 0, len(r.vals))
	for _, v := range r.vals {
		vs = append(vs, v)
	}
	return vs
}
