// Package resultstore is a content-addressed cache of simulation results.
//
// A simulation is identified by a Spec — the complete set of inputs that
// determine its outcome: the architectural configuration, the benchmark
// name, and the run options (scheme, ASR level, seed, ops scale, tracking
// flags). Because sim.Run is deterministic, a Spec's canonical hash is a
// content address for its Result: the same key always denotes the same
// bytes, so a result computed once never needs to be computed again.
//
// The store layers three mechanisms:
//
//   - an in-memory map of decoded results seen this process, optionally
//     bounded by an LRU entry limit so long-lived servers don't grow
//     without bound,
//   - an optional persistent backend (internal/store) holding the encoded
//     entries: a single disk directory, a sharded composite across many
//     directories, a remote peer server, or a locality-aware replicated
//     stack over any of those (see Open), and
//   - singleflight deduplication: concurrent GetOrCompute calls for the
//     same key share one computation instead of racing to duplicate it.
//
// Callers receive private clones, so mutating a returned Result (for
// example relabeling its Scheme) never corrupts the cache. The encoded
// entry format and every content address are byte-identical to the
// original single-directory store, so existing store directories keep
// resolving unchanged.
package resultstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/sim"
	"lard/internal/store"
)

// keyVersion is folded into every hash so that future changes to the Spec
// shape or the Result encoding can never alias old store entries.
const keyVersion = "lard-result-v1"

// Spec is the complete, canonical description of one simulation run: every
// input that can change the result, and nothing else.
type Spec struct {
	// Benchmark is the workload profile name.
	Benchmark string `json:"benchmark"`
	// Config is the full architectural configuration, by value.
	Config config.Config `json:"config"`
	// Options are the run options (scheme, ASR level, seed, ops scale).
	Options sim.Options `json:"options"`
}

// SpecFor builds the canonical Spec for simulating benchmark bench on cfg
// with opt. It normalizes defaulted fields (OpsScale 0 means 1.0, exactly
// as sim.Run treats it) so equivalent requests share one address, and
// strips the execution-only Observer: a spec is run identity, and two
// runs that differ only in who is watching are the same run.
func SpecFor(bench string, cfg *config.Config, opt sim.Options) Spec {
	if opt.OpsScale == 0 {
		opt.OpsScale = 1
	}
	opt.Observer = nil
	return Spec{Benchmark: bench, Config: *cfg, Options: opt}
}

// Key returns the spec's content address: a hex SHA-256 of the versioned
// canonical JSON encoding. Struct fields encode in declaration order and
// the Spec contains no maps, so the encoding — and therefore the key — is
// byte-stable across processes.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only scalar fields; Marshal cannot fail.
		panic(fmt.Sprintf("resultstore: marshal spec: %v", err))
	}
	h := sha256.New()
	// hash.Hash.Write is documented never to return an error; the
	// discards make that contract explicit for the error linter.
	_, _ = h.Write([]byte(keyVersion))
	_, _ = h.Write([]byte{'\n'})
	_, _ = h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// SchemeLabel renders the spec's scheme the way the paper's figures do
// ("RT-3" for the locality-aware protocol, the scheme name otherwise), as
// declared by the scheme's registry descriptor.
func (s Spec) SchemeLabel() string {
	return coherence.LabelFor(s.Options.Scheme, &s.Config)
}

// Stats counts store traffic. Computes is the number of times a compute
// callback actually ran — the store's cache-effectiveness ground truth.
type Stats struct {
	// MemHits and DiskHits count Get/GetOrCompute calls served from the
	// in-memory map and the persistent backend respectively.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts GetOrCompute lookups that found nothing in either
	// layer and went on to compute. Plain Get misses are not counted, so a
	// peek-then-compute caller (the server's POST fast path) does not
	// double-count one logical miss.
	Misses uint64 `json:"misses"`
	// Computes counts compute callbacks executed (singleflight leaders).
	Computes uint64 `json:"computes"`
	// Shared counts GetOrCompute callers that piggybacked on another
	// caller's in-flight computation instead of running their own.
	Shared uint64 `json:"shared"`
	// CorruptEntries counts backend entries that failed to decode and were
	// treated as misses (the next compute overwrites them).
	CorruptEntries uint64 `json:"corrupt_entries"`
	// Evictions counts memory-layer entries dropped by the LRU bound.
	// Evicted results remain readable from the persistent backend.
	Evictions uint64 `json:"evictions"`
}

// entry is the encoded envelope: the spec is stored alongside the result so
// a store directory is self-describing and auditable.
type entry struct {
	Key    string      `json:"key"`
	Spec   Spec        `json:"spec"`
	Result *sim.Result `json:"result"`
}

// IndexEntry is one row of Index: the identity of a stored run.
type IndexEntry struct {
	// Key is the run's content address.
	Key string `json:"key"`
	// Benchmark, Scheme, Cores, Seed and OpsScale summarize the spec.
	Benchmark string  `json:"benchmark"`
	Scheme    string  `json:"scheme"`
	Cores     int     `json:"cores"`
	Seed      uint64  `json:"seed"`
	OpsScale  float64 `json:"ops_scale"`
	// InMemory reports whether the entry is resident in the memory layer
	// (false = backend only, e.g. after an LRU eviction or a restart).
	InMemory bool `json:"in_memory"`
}

// call is one in-flight singleflight computation.
type call struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// memEntry is one memory-layer entry; the spec is kept alongside the result
// so the index is self-describing without touching the backend.
type memEntry struct {
	key  string
	spec Spec
	res  *sim.Result
}

// Store is a content-addressed result cache. The zero value is not usable;
// call New, NewWithLimit, NewWithBackend or Open. A Store is safe for
// concurrent use.
type Store struct {
	backend store.Backend // nil = memory only
	dir     string        // display root ("" = memory only or custom backend)
	max     int           // memory-layer LRU bound; 0 = unbounded

	mu  sync.Mutex
	mem map[string]*list.Element // of *memEntry
	lru *list.List               // front = most recently used
	// specs caches spec metadata by key so the index never re-decodes a
	// seen entry. Unbounded stores (max 0) keep every spec; bounded stores
	// cap it at specsBound() so the -max-entries promise extends to
	// metadata (beyond the cap the index falls back to decoding).
	specs map[string]Spec
	calls map[string]*call
	stats Stats

	// opObs observes persistent-backend operation latencies (observe.go);
	// atomic so installation never contends with the op hot path.
	opObs atomic.Pointer[opObserver]
}

// New opens an unbounded store. dir is the on-disk backend directory,
// created if missing; an empty dir selects a memory-only store.
func New(dir string) (*Store, error) { return NewWithLimit(dir, 0) }

// NewWithLimit opens a store whose memory layer holds at most maxEntries
// results, evicting least-recently-used entries beyond that (0 = unbounded).
// With a persistent backend, evicted results stay readable from it;
// memory-only stores lose them outright, trading recomputation for bounded
// memory.
func NewWithLimit(dir string, maxEntries int) (*Store, error) {
	var b store.Backend
	if dir != "" {
		d, err := store.NewDisk("disk", dir)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		b = d
	}
	st, err := NewWithBackend(b, maxEntries)
	if err != nil {
		return nil, err
	}
	st.dir = dir
	return st, nil
}

// NewWithBackend opens a store over an arbitrary persistent backend — a
// sharded composite, a remote peer, a replicated stack — with the given
// memory-layer LRU bound (0 = unbounded). A nil backend selects a
// memory-only store.
func NewWithBackend(b store.Backend, maxEntries int) (*Store, error) {
	if maxEntries < 0 {
		return nil, fmt.Errorf("resultstore: negative entry limit %d", maxEntries)
	}
	return &Store{
		backend: b,
		max:     maxEntries,
		mem:     make(map[string]*list.Element),
		lru:     list.New(),
		specs:   make(map[string]Spec),
		calls:   make(map[string]*call),
	}, nil
}

// BackendConfig describes the standard backend stack of a serving node;
// Open composes it. The zero value is a memory-only store.
type BackendConfig struct {
	// Dir is the root store directory ("" = no local disk).
	Dir string
	// Shards > 1 splits Dir into that many consistent-hashed disk shards
	// (Dir/shard-00 …), so entries spread across directories — or mounts.
	Shards int
	// Peer is the base URL of another lard-server whose store becomes the
	// authoritative owner backend; this node fetches from it and promotes
	// hot entries into its own local backend (locality-aware replication).
	Peer string
	// ReplicateThreshold is the reuse count that earns a peer-owned entry
	// a local replica (default 2; meaningful only with Peer).
	ReplicateThreshold int
	// ReplicaCapacity bounds the local replica set (0 = unbounded).
	ReplicaCapacity int
	// MaxEntries bounds the in-memory decoded layer (0 = unbounded).
	MaxEntries int
}

// Open builds the backend stack cfg describes and opens a store over it:
// plain disk, sharded disks, and/or a locality-aware replicated tier over
// a peer server. Mixing sharded and unsharded stores over the same root
// directory is not supported (they address different layouts).
func Open(cfg BackendConfig) (*Store, error) {
	var base store.Backend
	switch {
	case cfg.Dir == "":
		// no local persistence
	case cfg.Shards > 1:
		children := make([]store.Backend, cfg.Shards)
		for i := range children {
			name := fmt.Sprintf("shard-%02d", i)
			d, err := store.NewDisk(name, filepath.Join(cfg.Dir, name))
			if err != nil {
				return nil, fmt.Errorf("resultstore: %w", err)
			}
			children[i] = d
		}
		s, err := store.NewSharded("sharded", children...)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		base = s
	default:
		d, err := store.NewDisk("disk", cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		base = d
	}

	if cfg.Peer != "" {
		owner, err := store.NewRemote("peer", cfg.Peer, nil)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		local := base
		if local == nil {
			local = store.NewMemory("replicas", cfg.ReplicaCapacity)
		}
		threshold := cfg.ReplicateThreshold
		if threshold == 0 {
			threshold = 2
		}
		r, err := store.NewReplicated("replicated", owner, local, threshold, cfg.ReplicaCapacity)
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		base = r
	}

	st, err := NewWithBackend(base, cfg.MaxEntries)
	if err != nil {
		return nil, err
	}
	st.dir = cfg.Dir
	return st, nil
}

// Dir returns the store's root directory ("" for a memory-only store or a
// custom backend opened without one).
func (s *Store) Dir() string { return s.dir }

// MaxEntries returns the memory-layer LRU bound (0 = unbounded).
func (s *Store) MaxEntries() int { return s.max }

// Backend returns the persistent backend (nil for a memory-only store).
func (s *Store) Backend() store.Backend { return s.backend }

// BackendStats returns the persistent backend's counter tree, ok=false for
// a memory-only store.
func (s *Store) BackendStats() (store.Stats, bool) {
	if s.backend == nil {
		return store.Stats{}, false
	}
	return s.backend.Stats(), true
}

// Close releases the persistent backend's resources.
func (s *Store) Close() error {
	if s.backend == nil {
		return nil
	}
	return s.backend.Close()
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of results resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// memGetLocked returns the memory entry for key, refreshing its recency.
// Callers hold s.mu.
func (s *Store) memGetLocked(key string) (*memEntry, bool) {
	el, ok := s.mem[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry), true
}

// specsBound returns the spec-index cap: 0 (unbounded) when the memory
// layer is unbounded, else a generous multiple of the result bound — specs
// are two orders of magnitude smaller than results, so the index stays
// cheap without growing forever.
func (s *Store) specsBound() int {
	if s.max == 0 {
		return 0
	}
	n := 16 * s.max
	if n < 4096 {
		n = 4096
	}
	return n
}

// cacheSpecLocked records spec metadata for key, subject to the bound.
// Callers hold s.mu.
func (s *Store) cacheSpecLocked(key string, spec Spec) {
	if b := s.specsBound(); b > 0 && len(s.specs) >= b {
		if _, ok := s.specs[key]; !ok {
			return
		}
	}
	s.specs[key] = spec
}

// memPutLocked inserts or refreshes a memory entry, records the spec in
// the metadata index, and enforces the LRU bound. Callers hold s.mu.
func (s *Store) memPutLocked(key string, spec Spec, r *sim.Result) {
	s.cacheSpecLocked(key, spec)
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).res = r
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&memEntry{key: key, spec: spec, res: r})
	for s.max > 0 && s.lru.Len() > s.max {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.mem, oldest.Value.(*memEntry).key)
		s.stats.Evictions++
	}
}

// path returns the entry file for key when the backend can name one (a
// disk backend, or the owning shard of a sharded one); "" otherwise.
func (s *Store) path(key string) string {
	if p, ok := s.backend.(interface{ Path(string) string }); ok {
		return p.Path(key)
	}
	return ""
}

// validKey reports whether key is a well-formed content address (64
// lowercase hex digits). Lookups by raw key strings (GET /v1/runs/{id}
// fallbacks) pass through here, so a malformed or path-traversing id can
// never touch a backend.
func validKey(key string) bool { return store.ValidKey(key) }

// Get returns the cached result for spec, or (nil, false) on a miss.
func (s *Store) Get(spec Spec) (*sim.Result, bool, error) {
	r, _, ok, err := s.GetByKey(spec.Key())
	return r, ok, err
}

// GetByKey returns the stored result whose content address is key, along
// with its spec, or ok=false when no layer holds it. It never computes; it
// is the lookup path for callers that hold only a raw id (the server's
// GET-after-eviction fallback and the index).
func (s *Store) GetByKey(key string) (*sim.Result, Spec, bool, error) {
	if !validKey(key) {
		return nil, Spec{}, false, nil
	}
	s.mu.Lock()
	if e, ok := s.memGetLocked(key); ok {
		s.stats.MemHits++
		s.mu.Unlock()
		return e.res.Clone(), e.spec, true, nil
	}
	s.mu.Unlock()

	e, err := s.readBackend(key)
	if err != nil {
		return nil, Spec{}, false, err
	}
	if e == nil {
		return nil, Spec{}, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.DiskHits++
	s.memPutLocked(key, e.Spec, e.Result)
	return e.Result.Clone(), e.Spec, true, nil
}

// Put stores a result for spec, overwriting any previous entry.
func (s *Store) Put(spec Spec, r *sim.Result) error {
	key := spec.Key()
	c := r.Clone()
	s.mu.Lock()
	s.memPutLocked(key, spec, c)
	s.mu.Unlock()
	return s.writeBackend(key, spec, c)
}

// GetRaw returns the canonical encoded entry for key, or ok=false when no
// layer holds one. It validates what it serves — a corrupt backend entry
// reads as a miss, never propagates to a peer — and is the server's
// GET /v1/results/{key} path (what a Remote backend fetches).
func (s *Store) GetRaw(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, nil
	}
	if s.backend != nil {
		start := time.Now()
		b, ok, err := s.backend.Get(key)
		s.observeOp("get", start)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if e := s.decodeEntry(key, b); e != nil {
				s.mu.Lock()
				s.stats.DiskHits++
				s.mu.Unlock()
				return b, true, nil
			}
			return nil, false, nil
		}
	}
	// Memory-resident only (memory-only store, or a backend that lost the
	// file): re-encode canonically — the encoding is deterministic, so the
	// bytes match what the backend would have held.
	s.mu.Lock()
	e, ok := s.memGetLocked(key)
	if !ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	s.stats.MemHits++
	env := entry{Key: key, Spec: e.spec, Result: e.res}
	s.mu.Unlock()
	b, err := encodeEntry(env)
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// ErrInvalidEntry marks PutRaw rejections of the entry bytes themselves —
// undecodable, mislabeled, or address-mismatched — as distinct from
// storage faults, so callers (the server's PUT handler) can blame the
// right party: 400 for a bad envelope, 500 for a failing backend.
var ErrInvalidEntry = errors.New("invalid entry")

// PutRaw stores an encoded entry under key, validating that the bytes
// decode to a self-consistent envelope whose spec re-derives key — a peer
// can never poison the store with a mislabeled result. The canonical
// re-encoding is what persists, so one key always stores one byte string.
// Validation failures wrap ErrInvalidEntry; other errors are storage
// faults.
func (s *Store) PutRaw(key string, b []byte) error {
	if !validKey(key) {
		return fmt.Errorf("resultstore: put: %w: malformed key %q", ErrInvalidEntry, key)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return fmt.Errorf("resultstore: put %s: %w: %v", key, ErrInvalidEntry, err)
	}
	if e.Key != key || e.Result == nil {
		return fmt.Errorf("resultstore: put %s: %w: envelope does not describe this key", key, ErrInvalidEntry)
	}
	if e.Spec.Key() != key {
		return fmt.Errorf("resultstore: put %s: %w: spec re-derives a different address", key, ErrInvalidEntry)
	}
	s.mu.Lock()
	s.memPutLocked(key, e.Spec, e.Result)
	s.mu.Unlock()
	return s.writeBackend(key, e.Spec, e.Result)
}

// GCStats summarizes one garbage-collection sweep.
type GCStats struct {
	// Scanned is the number of index entries examined.
	Scanned int `json:"scanned"`
	// Matched is the number that met every criterion (age and, when set,
	// benchmark).
	Matched int `json:"matched"`
	// Deleted is the number actually removed (0 on a dry run).
	Deleted int `json:"deleted"`
	// Undatable is the number of matched-benchmark entries skipped because
	// no backend layer could date them; they are never deleted.
	Undatable int `json:"undatable"`
}

// GC deletes stored results older than olderThan, optionally restricted to
// one benchmark, through the exact same Delete path as the HTTP DELETE
// endpoint (every layer: memory, spec index, backend). Entry age is the
// backend's last-modified time (a write refreshes it, so GC measures
// staleness of the bytes, not of first computation); entries the backend
// cannot date are counted Undatable and left alone — age-based deletion
// must never guess. With dryRun, nothing is deleted and Matched reports
// what a real sweep would remove.
func (s *Store) GC(olderThan time.Duration, benchmark string, dryRun bool) (GCStats, error) {
	var st GCStats
	mt, ok := s.backend.(store.ModTimer)
	if !ok {
		return st, errors.New("resultstore: gc: backend cannot date entries (memory-only store?)")
	}
	idx, err := s.Index()
	if err != nil {
		return st, err
	}
	cutoff := time.Now().Add(-olderThan)
	for _, e := range idx {
		st.Scanned++
		if benchmark != "" && e.Benchmark != benchmark {
			continue
		}
		t, dated, err := mt.ModTime(e.Key)
		if err != nil {
			return st, fmt.Errorf("resultstore: gc: date %s: %w", e.Key, err)
		}
		if !dated {
			st.Undatable++
			continue
		}
		if !t.Before(cutoff) {
			continue
		}
		st.Matched++
		if dryRun {
			continue
		}
		if err := s.Delete(e.Key); err != nil {
			return st, fmt.Errorf("resultstore: gc: delete %s: %w", e.Key, err)
		}
		st.Deleted++
	}
	return st, nil
}

// Delete removes key from every layer.
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return nil
	}
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.Remove(el)
		delete(s.mem, key)
	}
	delete(s.specs, key)
	s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	start := time.Now()
	err := s.backend.Delete(key)
	s.observeOp("delete", start)
	return err
}

// GetOrCompute returns the cached result for spec, computing and storing it
// on a miss. Concurrent calls for the same key share one computation: the
// first caller runs compute, the rest block until it finishes and receive
// the same outcome. The returned bool reports whether the result was served
// from cache (memory or backend) rather than computed by this call graph.
func (s *Store) GetOrCompute(spec Spec, compute func() (*sim.Result, error)) (*sim.Result, bool, error) {
	key := spec.Key()

	s.mu.Lock()
	if e, ok := s.memGetLocked(key); ok {
		s.stats.MemHits++
		s.mu.Unlock()
		return e.res.Clone(), true, nil
	}
	if c, ok := s.calls[key]; ok {
		s.stats.Shared++
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, false, c.err
		}
		return c.res.Clone(), false, nil
	}
	c := &call{done: make(chan struct{})}
	s.calls[key] = c
	s.mu.Unlock()

	r, hit, err := s.leader(key, spec, compute)
	c.res, c.err = r, err
	s.mu.Lock()
	delete(s.calls, key)
	s.mu.Unlock()
	close(c.done)
	if err != nil {
		return nil, false, err
	}
	return r.Clone(), hit, nil
}

// leader runs the miss path of GetOrCompute for the singleflight winner:
// consult the backend, else compute and persist.
func (s *Store) leader(key string, spec Spec, compute func() (*sim.Result, error)) (*sim.Result, bool, error) {
	e, err := s.readBackend(key)
	if err != nil {
		return nil, false, err
	}
	if e != nil {
		s.mu.Lock()
		s.stats.DiskHits++
		s.memPutLocked(key, e.Spec, e.Result)
		s.mu.Unlock()
		return e.Result, true, nil
	}

	s.mu.Lock()
	s.stats.Misses++
	s.stats.Computes++
	s.mu.Unlock()
	r, err := compute()
	if err != nil {
		return nil, false, err
	}
	c := r.Clone()
	s.mu.Lock()
	s.memPutLocked(key, spec, c)
	s.mu.Unlock()
	if err := s.writeBackend(key, spec, c); err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// Keys returns every stored key — memory-resident and backend alike —
// sorted. It never decodes entries.
func (s *Store) Keys() ([]string, error) {
	set := make(map[string]bool)
	if s.backend != nil {
		start := time.Now()
		ks, err := s.backend.Index()
		s.observeOp("index", start)
		if err != nil {
			return nil, fmt.Errorf("resultstore: index: %w", err)
		}
		for _, k := range ks {
			set[k] = true
		}
	}
	s.mu.Lock()
	for k := range s.mem {
		set[k] = true
	}
	s.mu.Unlock()
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Index enumerates every stored run, sorted by key. Spec metadata is
// served from the in-memory index whenever the key has been seen this
// process; only never-seen backend entries are read and decoded. Large
// stores should page with IndexPage instead.
func (s *Store) Index() ([]IndexEntry, error) {
	out, _, err := s.IndexPage(0, 0)
	return out, err
}

// IndexPage returns the [offset, offset+limit) window of the sorted index
// plus the total key count (limit 0 = to the end). Decoding cost is
// bounded by the window: a page over a million-entry store touches at most
// `limit` entry files, and none whose spec is already known in memory.
func (s *Store) IndexPage(offset, limit int) ([]IndexEntry, int, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, 0, err
	}
	total := len(keys)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < total {
		end = offset + limit
	}

	out := make([]IndexEntry, 0, end-offset)
	for _, key := range keys[offset:end] {
		s.mu.Lock()
		_, inMem := s.mem[key]
		spec, known := s.specs[key]
		s.mu.Unlock()
		if !known {
			e, err := s.readBackendForIndex(key)
			if err != nil {
				return nil, 0, fmt.Errorf("resultstore: index: %w", err)
			}
			if e == nil {
				continue // corrupt or concurrently deleted
			}
			spec = e.Spec
			s.mu.Lock()
			s.cacheSpecLocked(key, spec) // next index need not re-decode
			s.mu.Unlock()
		}
		out = append(out, indexEntryFor(key, spec, inMem))
	}
	return out, total, nil
}

// indexEntryFor summarizes a spec into an index row.
func indexEntryFor(key string, spec Spec, inMem bool) IndexEntry {
	return IndexEntry{
		Key:       key,
		Benchmark: spec.Benchmark,
		Scheme:    spec.SchemeLabel(),
		Cores:     spec.Config.Cores,
		Seed:      spec.Options.Seed,
		OpsScale:  spec.Options.OpsScale,
		InMemory:  inMem,
	}
}

// readBackendForIndex is readBackend for audit/index reads: when the
// backend distinguishes them (the replicated tier's IndexGet reads the
// owner without reuse bookkeeping), enumerating a store does not promote
// cold keys or evict hot replicas.
func (s *Store) readBackendForIndex(key string) (*entry, error) {
	ig, ok := s.backend.(interface {
		IndexGet(string) ([]byte, bool, error)
	})
	if !ok {
		return s.readBackend(key)
	}
	b, found, err := ig.IndexGet(key)
	if err != nil {
		return nil, fmt.Errorf("resultstore: read %s: %w", key, err)
	}
	if !found {
		return nil, nil
	}
	return s.decodeEntry(key, b), nil
}

// readBackend loads the entry for key from the persistent backend,
// returning nil on a miss (or when the store is memory-only). An entry
// that fails to decode is treated as a miss, not an error: the key stays
// computable and the next write atomically replaces the damaged bytes.
// Real I/O failures still surface as errors.
func (s *Store) readBackend(key string) (*entry, error) {
	if s.backend == nil {
		return nil, nil
	}
	start := time.Now()
	b, ok, err := s.backend.Get(key)
	s.observeOp("get", start)
	if err != nil {
		return nil, fmt.Errorf("resultstore: read %s: %w", key, err)
	}
	if !ok {
		return nil, nil
	}
	return s.decodeEntry(key, b), nil
}

// decodeEntry decodes and validates an encoded envelope, counting (and
// swallowing) corruption.
func (s *Store) decodeEntry(key string, b []byte) *entry {
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || e.Result == nil {
		s.mu.Lock()
		s.stats.CorruptEntries++
		s.mu.Unlock()
		return nil
	}
	return &e
}

// writeBackend persists an entry through the backend. The encoding is
// deterministic: Result holds only fixed-size arrays and scalars, so the
// same key always produces byte-identical stored entries.
func (s *Store) writeBackend(key string, spec Spec, r *sim.Result) error {
	if s.backend == nil {
		return nil
	}
	b, err := encodeEntry(entry{Key: key, Spec: spec, Result: r})
	if err != nil {
		return err
	}
	start := time.Now()
	err = s.backend.Put(key, b)
	s.observeOp("put", start)
	if err != nil {
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	return nil
}

// encodeEntry renders the canonical byte encoding of an envelope —
// unchanged from the original on-disk format, so existing store
// directories remain valid byte for byte.
func encodeEntry(e entry) ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("resultstore: encode %s: %w", e.Key, err)
	}
	return append(b, '\n'), nil
}
