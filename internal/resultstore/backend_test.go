package resultstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/sim"
)

// faults is one fault-injection setting of a faultBackend.
type faults struct {
	getErr   error         // returned by every Get while set
	putErr   error         // returned by every Put while set (nothing is written)
	truncate bool          // Put writes only the first half of the bytes
	delay    time.Duration // slept before every Get and Put
}

// faultBackend wraps a Disk and injects faults beneath the store: read and
// write errors, truncated writes, and latency. Everything else (Delete,
// Index, ModTime, Entries, Path) is the Disk's own.
type faultBackend struct {
	*Disk
	mu sync.Mutex
	f  faults
}

// newFaultStore opens a store over a fault-injecting Disk rooted at dir,
// memory layer bounded to maxEntries.
func newFaultStore(t *testing.T, dir string, maxEntries int) (*Store, *faultBackend) {
	t.Helper()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	fb := &faultBackend{Disk: d}
	st, err := NewWithBackend(fb, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	return st, fb
}

// inject replaces the active faults (the zero value clears them).
func (b *faultBackend) inject(f faults) {
	b.mu.Lock()
	b.f = f
	b.mu.Unlock()
}

func (b *faultBackend) current() faults {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f
}

func (b *faultBackend) Get(key string) ([]byte, bool, error) {
	f := b.current()
	time.Sleep(f.delay)
	if f.getErr != nil {
		return nil, false, f.getErr
	}
	return b.Disk.Get(key)
}

func (b *faultBackend) Put(key string, val []byte) error {
	f := b.current()
	time.Sleep(f.delay)
	if f.putErr != nil {
		return f.putErr
	}
	if f.truncate {
		val = val[:len(val)/2]
	}
	return b.Disk.Put(key, val)
}

var errInjected = errors.New("injected backend fault")

// TestTruncatedEntryThroughBackend: a truncated entry is never served. The
// raw path misses, the decoded path misses, the corruption is counted, and
// the next GetOrCompute recomputes and overwrites it for future stores.
func TestTruncatedEntryThroughBackend(t *testing.T) {
	dir := t.TempDir()
	st, fb := newFaultStore(t, dir, 0)
	sp := spec(5)
	fb.inject(faults{truncate: true})
	if err := st.Put(sp, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	fb.inject(faults{})
	if b, ok, err := st.GetRaw(sp.Key()); err != nil || ok {
		t.Fatalf("truncated entry served raw: %d bytes, ok=%v err=%v", len(b), ok, err)
	}
	if s := st.Stats(); s.CorruptEntries != 1 {
		t.Fatalf("raw read of a truncated entry must count corruption, stats %+v", s)
	}

	st2, _ := newFaultStore(t, dir, 0)
	if _, ok, err := st2.Get(sp); err != nil || ok {
		t.Fatalf("truncated entry must read as a miss, got ok=%v err=%v", ok, err)
	}
	res, cached, err := st2.GetOrCompute(sp, func() (*sim.Result, error) { return fakeResult(2), nil })
	if err != nil || cached || res.CompletionTime != 2 {
		t.Fatalf("recompute over truncated entry: cached=%v err=%v res=%+v", cached, err, res)
	}
	if s := st2.Stats(); s.CorruptEntries == 0 || s.Computes != 1 {
		t.Fatalf("corruption must be counted and recomputed, stats %+v", s)
	}
	// The overwrite healed the entry for future stores.
	st3, _ := newFaultStore(t, dir, 0)
	healed, ok, err := st3.Get(sp)
	if err != nil || !ok || healed.CompletionTime != 2 {
		t.Fatalf("healed entry: ok=%v err=%v res=%+v", ok, err, healed)
	}
}

// TestFailedWriteLeavesNoTrace: a result the backend refused is reported
// failed and cached nowhere — not by GetOrCompute, Put or PutRaw — so the
// next request computes (or imports) again instead of serving a result
// that was never stored.
func TestFailedWriteLeavesNoTrace(t *testing.T) {
	st, fb := newFaultStore(t, t.TempDir(), 0)
	sp := spec(6)
	fb.inject(faults{putErr: errInjected})
	computes := 0
	compute := func() (*sim.Result, error) {
		computes++
		return fakeResult(6), nil
	}
	if _, _, err := st.GetOrCompute(sp, compute); !errors.Is(err, errInjected) {
		t.Fatalf("GetOrCompute over a failing write: err=%v", err)
	}
	if err := st.Put(spec(7), fakeResult(7)); !errors.Is(err, errInjected) {
		t.Fatalf("Put over a failing write: err=%v", err)
	}

	// A raw import fails the same way; encode the entry in a healthy store.
	src, _ := New("")
	src.Put(spec(8), fakeResult(8))
	raw, _, _ := src.GetRaw(spec(8).Key())
	if err := st.PutRaw(spec(8).Key(), raw); !errors.Is(err, errInjected) {
		t.Fatalf("PutRaw over a failing write: err=%v", err)
	}

	if n := st.Len(); n != 0 {
		t.Fatalf("memory layer holds %d results after failed writes, want 0", n)
	}
	for seed := uint64(6); seed <= 8; seed++ {
		if _, ok, _ := st.Get(spec(seed)); ok {
			t.Fatalf("seed %d served after its write failed", seed)
		}
	}
	if idx, err := st.Index(); err != nil || len(idx) != 0 {
		t.Fatalf("index lists %d entries after failed writes (%v)", len(idx), err)
	}

	fb.inject(faults{})
	res, cached, err := st.GetOrCompute(sp, compute)
	if err != nil || cached || res.CompletionTime != 6 || computes != 2 {
		t.Fatalf("retry after the fault cleared: cached=%v computes=%d err=%v", cached, computes, err)
	}
}

// TestFailingLeaderFailsEveryWaiter: callers that piggyback on an
// in-flight computation share its failure, and a later call computes
// afresh rather than inheriting it.
func TestFailingLeaderFailsEveryWaiter(t *testing.T) {
	st, fb := newFaultStore(t, t.TempDir(), 0)
	fb.inject(faults{putErr: errInjected})
	sp := spec(9)
	const callers = 6
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (*sim.Result, error) {
		computes.Add(1)
		<-release
		return fakeResult(9), nil
	}

	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := st.GetOrCompute(sp, compute)
			errs <- err
		}()
	}
	// Hold the leader until every other caller is waiting on it.
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Shared < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the leader: %+v", st.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, errInjected) {
			t.Fatalf("caller %d: err=%v, want the leader's write failure", i, err)
		}
	}
	if c := computes.Load(); c != 1 {
		t.Fatalf("computes = %d, want 1 shared computation", c)
	}

	fb.inject(faults{})
	res, cached, err := st.GetOrCompute(sp, func() (*sim.Result, error) {
		computes.Add(1)
		return fakeResult(9), nil
	})
	if err != nil || cached || res.CompletionTime != 9 || computes.Load() != 2 {
		t.Fatalf("later call: cached=%v computes=%d err=%v", cached, computes.Load(), err)
	}
}

// TestBackendReadErrorSurfaces: a failing backend read is an error on
// every read path, never a silent miss that would trigger a recompute.
func TestBackendReadErrorSurfaces(t *testing.T) {
	st, fb := newFaultStore(t, t.TempDir(), 0)
	sp := spec(10)
	fb.inject(faults{getErr: errInjected})
	if _, _, err := st.GetRaw(sp.Key()); !errors.Is(err, errInjected) {
		t.Fatalf("GetRaw: err=%v", err)
	}
	if _, _, _, err := st.GetByKey(sp.Key()); !errors.Is(err, errInjected) {
		t.Fatalf("GetByKey: err=%v", err)
	}
	ran := false
	if _, _, err := st.GetOrCompute(sp, func() (*sim.Result, error) { ran = true; return fakeResult(1), nil }); !errors.Is(err, errInjected) || ran {
		t.Fatalf("GetOrCompute: err=%v computed=%v", err, ran)
	}
}

// TestConcurrentGetOrComputeWithEviction races GetOrCompute against the
// memory layer's LRU eviction: a tiny bound over a slow disk backend forces
// constant evict/reload churn while many goroutines demand overlapping
// keys. Run under -race in CI; correctness here means every caller gets
// the right result and the compute count stays at one per key.
func TestConcurrentGetOrComputeWithEviction(t *testing.T) {
	st, fb := newFaultStore(t, t.TempDir(), 1) // memory layer holds ONE entry
	fb.inject(faults{delay: 50 * time.Microsecond})
	const (
		keys    = 6
		workers = 8
		rounds  = 40
	)
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seed := uint64((w+i)%keys + 1)
				res, _, err := st.GetOrCompute(spec(seed), func() (*sim.Result, error) {
					computes[seed-1].Add(1)
					return fakeResult(seed), nil
				})
				if err != nil {
					t.Errorf("GetOrCompute seed %d: %v", seed, err)
					return
				}
				if uint64(res.CompletionTime) != seed {
					t.Errorf("seed %d served %d — cross-key corruption", seed, res.CompletionTime)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range computes {
		if c := computes[i].Load(); c != 1 {
			t.Errorf("key %d computed %d times, want 1 (backend persists across evictions)", i+1, c)
		}
	}
	if st.Len() > 1 {
		t.Fatalf("memory layer holds %d entries, bound is 1", st.Len())
	}
}

// TestIndexPage covers the paged index: stable windows, total counts, and
// spec metadata served from memory without re-decoding resident entries.
func TestIndexPage(t *testing.T) {
	dir := t.TempDir()
	st, _ := newFaultStore(t, dir, 0)
	const n = 9
	for seed := uint64(1); seed <= n; seed++ {
		st.Put(spec(seed), fakeResult(seed))
	}

	full, total, err := st.IndexPage(0, 0)
	if err != nil || total != n || len(full) != n {
		t.Fatalf("full page: %d/%d (%v)", len(full), total, err)
	}
	var paged []IndexEntry
	for off := 0; off < total; off += 4 {
		page, tot, err := st.IndexPage(off, 4)
		if err != nil || tot != n {
			t.Fatalf("page %d: %v (total %d)", off, err, tot)
		}
		if len(page) > 4 {
			t.Fatalf("page %d has %d rows, limit 4", off, len(page))
		}
		paged = append(paged, page...)
	}
	if len(paged) != n {
		t.Fatalf("pages sum to %d rows, want %d", len(paged), n)
	}
	for i := range full {
		if paged[i] != full[i] {
			t.Fatalf("row %d differs between paged and full index", i)
		}
	}
	// Out-of-range offsets answer empty, not error.
	if page, tot, err := st.IndexPage(n+10, 4); err != nil || tot != n || len(page) != 0 {
		t.Fatalf("past-the-end page = %d rows, %d, %v", len(page), tot, err)
	}

	// A fresh store decodes a page once, then serves the specs from the
	// metadata index: the second identical page triggers no backend reads.
	st2, _ := newFaultStore(t, dir, 0)
	var gets atomic.Int64
	st2.SetOpObserver(func(op string, _ time.Duration) {
		if op == "get" {
			gets.Add(1)
		}
	})
	if _, _, err := st2.IndexPage(0, 4); err != nil {
		t.Fatal(err)
	}
	first := gets.Load()
	if first != 4 {
		t.Fatalf("first page read %d entries, want 4", first)
	}
	if _, _, err := st2.IndexPage(0, 4); err != nil {
		t.Fatal(err)
	}
	if after := gets.Load(); after != first {
		t.Fatalf("repeated index page re-read the backend (%d -> %d gets)", first, after)
	}
}

// TestSpecIndexBounded: with -max-entries set, the spec metadata cache
// must not grow without bound either.
func TestSpecIndexBounded(t *testing.T) {
	st, err := Open(BackendConfig{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := st.specsBound()
	if bound == 0 {
		t.Fatal("bounded store must bound its spec index")
	}
	for seed := uint64(1); seed <= uint64(bound)+50; seed++ {
		st.Put(spec(seed), fakeResult(seed))
	}
	st.mu.Lock()
	n := len(st.specs)
	st.mu.Unlock()
	if n > bound {
		t.Fatalf("spec index grew to %d, bound %d", n, bound)
	}
	// Unbounded stores keep every spec (the index never re-decodes).
	st2, _ := New("")
	if st2.specsBound() != 0 {
		t.Fatal("unbounded store must keep every spec")
	}
}

// TestRawRoundTrip covers the export/import entry surface: GetRaw serves
// canonical bytes, PutRaw validates and stores them, and a mislabeled or
// corrupt envelope is rejected.
func TestRawRoundTrip(t *testing.T) {
	st, _ := New(t.TempDir())
	sp := spec(7)
	if err := st.Put(sp, fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	b, ok, err := st.GetRaw(sp.Key())
	if err != nil || !ok {
		t.Fatalf("GetRaw = %v, %v", ok, err)
	}

	// The bytes land unchanged in a second, unrelated store.
	st2, _ := New(t.TempDir())
	if err := st2.PutRaw(sp.Key(), b); err != nil {
		t.Fatal(err)
	}
	res, got, ok, err := st2.GetByKey(sp.Key())
	if err != nil || !ok || res.CompletionTime != 3 || got.Key() != sp.Key() {
		t.Fatalf("after PutRaw: res=%+v ok=%v err=%v", res, ok, err)
	}
	b2, ok, _ := st2.GetRaw(sp.Key())
	if !ok || string(b2) != string(b) {
		t.Fatal("raw bytes must round-trip identically")
	}

	// A memory-only store re-encodes canonically.
	st3, _ := New("")
	st3.Put(sp, fakeResult(3))
	b3, ok, err := st3.GetRaw(sp.Key())
	if err != nil || !ok || string(b3) != string(b) {
		t.Fatalf("memory-only GetRaw must produce canonical bytes (%v, %v)", ok, err)
	}

	// Poisoned envelopes are rejected: wrong key, body under another key,
	// garbage.
	other := spec(8)
	if err := st2.PutRaw(other.Key(), b); err == nil {
		t.Fatal("entry stored under a foreign key must be rejected")
	}
	if err := st2.PutRaw(sp.Key(), []byte("{")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if err := st2.PutRaw("nothex", b); err == nil {
		t.Fatal("malformed key must be rejected")
	}

	// Delete clears every layer.
	if err := st2.Delete(sp.Key()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st2.GetByKey(sp.Key()); ok {
		t.Fatal("deleted key must be gone")
	}
}

// TestOpenComposition: Open puts a disk backend under a directory,
// opens memory-only for none, and applies the memory bound.
func TestOpenComposition(t *testing.T) {
	flat, err := Open(BackendConfig{Dir: t.TempDir(), MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flat.Backend().(*Disk); !ok {
		t.Fatalf("flat config opened %T", flat.Backend())
	}
	if flat.MaxEntries() != 8 {
		t.Fatalf("MaxEntries = %d", flat.MaxEntries())
	}
	memOnly, err := Open(BackendConfig{})
	if err != nil || memOnly.Backend() != nil {
		t.Fatalf("zero config must open memory-only (%v)", err)
	}
	if _, err := Open(BackendConfig{MaxEntries: -1}); err == nil {
		t.Fatal("negative entry limit must be rejected")
	}
}
