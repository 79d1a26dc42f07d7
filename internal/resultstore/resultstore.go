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
//   - an optional persistent Backend holding the encoded entries: a Disk,
//     one directory with one file per key (disk.go), and
//   - singleflight deduplication: concurrent GetOrCompute calls for the
//     same key share one computation instead of racing to duplicate it.
//
// A result reaches the memory layer only once the backend has accepted it,
// so a failed write never leaves a result that is served but not stored.
// Callers receive private clones, so mutating a returned Result (for
// example relabeling its Scheme) never corrupts the cache. The encoded
// entry format and every content address are byte-identical to the
// original single-directory store, so existing store directories keep
// resolving unchanged.
//
// Each store event is counted once: Stats counts hits, computes and
// corrupt entries, and the OpObserver (observe.go) sees every backend
// call. The Disk counts nothing but its entries.
package resultstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/sim"
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
// callback actually ran — the store's cache-effectiveness ground truth,
// and its miss count: every GetOrCompute lookup that found nothing in
// either layer computes. Backend call counts and latencies are the
// OpObserver's (observe.go), not counted here.
type Stats struct {
	// MemHits and DiskHits count Get/GetOrCompute calls served from the
	// in-memory map and the persistent backend respectively.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
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
	// DiskEntries is the number of entries in the persistent backend (0
	// for a memory-only store).
	DiskEntries int `json:"disk_entries"`
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
// call New, Open or NewWithBackend. A Store is safe for concurrent use.
type Store struct {
	backend Backend // nil = memory only
	dir     string  // display root ("" = memory only or custom backend)
	max     int     // memory-layer LRU bound; 0 = unbounded

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
	opObs atomic.Pointer[OpObserver]
}

// New opens an unbounded store. dir is the on-disk backend directory,
// created if missing; an empty dir selects a memory-only store.
func New(dir string) (*Store, error) { return Open(BackendConfig{Dir: dir}) }

// NewWithBackend opens a store over an arbitrary persistent backend — in
// practice a Disk, or a test wrapper around one — with the given
// memory-layer LRU bound (0 = unbounded). A nil backend selects a
// memory-only store.
func NewWithBackend(b Backend, maxEntries int) (*Store, error) {
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

// BackendConfig describes the store of a serving node; Open opens it.
// The zero value is a memory-only store.
type BackendConfig struct {
	// Dir is the store directory ("" = memory only).
	Dir string
	// MaxEntries bounds the in-memory decoded layer, evicting
	// least-recently-used results beyond it (0 = unbounded). With a disk
	// backend, evicted results stay readable from it; a memory-only store
	// loses them outright, trading recomputation for bounded memory.
	MaxEntries int
}

// Open opens the store cfg describes: a Disk under cfg.Dir (memory-only
// when Dir is empty) beneath a memory layer bounded by cfg.MaxEntries.
func Open(cfg BackendConfig) (*Store, error) {
	var b Backend
	if cfg.Dir != "" {
		d, err := NewDisk(cfg.Dir)
		if err != nil {
			return nil, err
		}
		b = d
	}
	st, err := NewWithBackend(b, cfg.MaxEntries)
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
func (s *Store) Backend() Backend { return s.backend }

// Close is a no-op kept for callers that close what they open: a Disk
// holds no open files between operations.
func (s *Store) Close() error { return nil }

// Stats returns a snapshot of the traffic counters and the backend's
// entry count.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if s.backend != nil {
		st.DiskEntries = s.backend.Entries()
	}
	return st
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
	if !ValidKey(key) {
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

// Put stores a result for spec, overwriting any previous entry. The
// memory layer takes the result only after the backend has.
func (s *Store) Put(spec Spec, r *sim.Result) error {
	key := spec.Key()
	c := r.Clone()
	if err := s.writeBackend(key, spec, c); err != nil {
		return err
	}
	s.mu.Lock()
	s.memPutLocked(key, spec, c)
	s.mu.Unlock()
	return nil
}

// GetRaw returns the canonical encoded entry for key, or ok=false when no
// layer holds one. It validates what it serves — a corrupt backend entry
// reads as a miss, never leaves the store — and is the server's
// GET /v1/results/{key} path (the export side of export/import).
func (s *Store) GetRaw(key string) ([]byte, bool, error) {
	if !ValidKey(key) {
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
// decode to a self-consistent envelope whose spec re-derives key — an
// importer can never poison the store with a mislabeled result. The canonical
// re-encoding is what persists, so one key always stores one byte string.
// Validation failures wrap ErrInvalidEntry; other errors are storage
// faults.
func (s *Store) PutRaw(key string, b []byte) error {
	if !ValidKey(key) {
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
	if err := s.writeBackend(key, e.Spec, e.Result); err != nil {
		return err
	}
	s.mu.Lock()
	s.memPutLocked(key, e.Spec, e.Result)
	s.mu.Unlock()
	return nil
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
// must never guess. GC walks keys, not decoded specs, so an old entry
// that no longer decodes is collected too; an entry is decoded only when
// a benchmark filter needs its spec, and one that cannot be decoded then
// matches no benchmark. With dryRun, nothing is deleted and Matched
// reports what a real sweep would remove.
func (s *Store) GC(olderThan time.Duration, benchmark string, dryRun bool) (GCStats, error) {
	var st GCStats
	if s.backend == nil {
		return st, errors.New("resultstore: gc: a memory-only store cannot date entries")
	}
	keys, err := s.Keys()
	if err != nil {
		return st, err
	}
	cutoff := time.Now().Add(-olderThan)
	for _, key := range keys {
		st.Scanned++
		t, dated, err := s.backend.ModTime(key)
		if err != nil {
			return st, fmt.Errorf("resultstore: gc: date %s: %w", key, err)
		}
		if dated && !t.Before(cutoff) {
			continue
		}
		if benchmark != "" {
			spec, ok, err := s.spec(key)
			if err != nil {
				return st, fmt.Errorf("resultstore: gc: %w", err)
			}
			if !ok || spec.Benchmark != benchmark {
				continue
			}
		}
		if !dated {
			st.Undatable++
			continue
		}
		st.Matched++
		if dryRun {
			continue
		}
		if err := s.Delete(key); err != nil {
			return st, fmt.Errorf("resultstore: gc: delete %s: %w", key, err)
		}
		st.Deleted++
	}
	return st, nil
}

// Delete removes key from every layer.
func (s *Store) Delete(key string) error {
	if !ValidKey(key) {
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
// consult the backend, else compute and persist. A result whose write
// fails is reported as an error and cached nowhere, so the next call
// computes again.
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
	s.stats.Computes++
	s.mu.Unlock()
	r, err := compute()
	if err != nil {
		return nil, false, err
	}
	c := r.Clone()
	if err := s.writeBackend(key, spec, c); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	s.memPutLocked(key, spec, c)
	s.mu.Unlock()
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

// KeyPage returns the [offset, offset+limit) window of the sorted keys
// plus the total key count (limit 0 = to the end; an offset past the end
// yields an empty window). It never decodes entries.
func (s *Store) KeyPage(offset, limit int) ([]string, int, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, 0, err
	}
	total := len(keys)
	offset = min(max(offset, 0), total)
	end := total
	if limit > 0 && offset+limit < total {
		end = offset + limit
	}
	return keys[offset:end], total, nil
}

// IndexPage returns the KeyPage window of the sorted index plus the total
// key count. Decoding cost is bounded by the window: a page over a
// million-entry store touches at most `limit` entry files, and none whose
// spec is already known in memory.
func (s *Store) IndexPage(offset, limit int) ([]IndexEntry, int, error) {
	keys, total, err := s.KeyPage(offset, limit)
	if err != nil {
		return nil, 0, err
	}
	out := make([]IndexEntry, 0, len(keys))
	for _, key := range keys {
		spec, ok, err := s.spec(key)
		if err != nil {
			return nil, 0, fmt.Errorf("resultstore: index: %w", err)
		}
		if !ok {
			continue // corrupt or concurrently deleted
		}
		s.mu.Lock()
		_, inMem := s.mem[key]
		s.mu.Unlock()
		out = append(out, indexEntryFor(key, spec, inMem))
	}
	return out, total, nil
}

// spec returns key's spec from the metadata index, else by reading and
// decoding its backend entry (caching the spec so the next lookup need
// not re-decode). ok=false means no layer holds a decodable entry.
func (s *Store) spec(key string) (Spec, bool, error) {
	s.mu.Lock()
	spec, known := s.specs[key]
	s.mu.Unlock()
	if known {
		return spec, true, nil
	}
	e, err := s.readBackend(key)
	if err != nil || e == nil {
		return Spec{}, false, err
	}
	s.mu.Lock()
	s.cacheSpecLocked(key, e.Spec)
	s.mu.Unlock()
	return e.Spec, true, nil
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
