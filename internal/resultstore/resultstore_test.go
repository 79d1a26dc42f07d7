package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/sim"
	"lard/internal/stats"
	"lard/internal/trace"
)

// spec returns a small canonical spec, tweaked by seed.
func spec(seed uint64) Spec {
	return SpecFor("BARNES", config.Small(), sim.Options{Seed: seed, OpsScale: 0.02})
}

// fakeResult builds a distinguishable result.
func fakeResult(cycles uint64) *sim.Result {
	return &sim.Result{
		Benchmark:      "BARNES",
		Scheme:         "S-NUCA",
		Cores:          16,
		Ops:            1000,
		CompletionTime: mem.Cycles(cycles),
	}
}

func TestKeyStability(t *testing.T) {
	a, b := spec(1), spec(1)
	if a.Key() != b.Key() {
		t.Fatal("identical specs must share a key")
	}
	if spec(1).Key() == spec(2).Key() {
		t.Fatal("different seeds must produce different keys")
	}
	// OpsScale 0 normalizes to 1, exactly as sim.Run treats it.
	z := SpecFor("BARNES", config.Small(), sim.Options{})
	o := SpecFor("BARNES", config.Small(), sim.Options{OpsScale: 1})
	if z.Key() != o.Key() {
		t.Fatal("OpsScale 0 and 1 must share a key")
	}
	// Config changes change the key.
	cfg := config.Small()
	cfg.RT = 8
	if SpecFor("BARNES", cfg, sim.Options{}).Key() == o.Key() {
		t.Fatal("config changes must change the key")
	}
}

// TestDeterministicFiles pins the content-address contract: storing the
// result of the same key twice yields byte-identical files.
func TestDeterministicFiles(t *testing.T) {
	sp := spec(1)
	prof, err := trace.ProfileByName("BARNES")
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(&sp.Config, prof, sp.Options)

	read := func(dir string) []byte {
		t.Helper()
		st, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(sp, res); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(st.Backend().(*Disk).Path(sp.Key()))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := read(filepath.Join(t.TempDir(), "a"))
	b := read(filepath.Join(t.TempDir(), "b"))
	if string(a) != string(b) {
		t.Fatal("same key must store byte-identical files")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	st, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1)
	if _, ok, err := st.Get(sp); err != nil || ok {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	want := fakeResult(7)
	want.Runs = &stats.RunLengthHist{}
	want.Runs[1][2] = 42
	if err := st.Put(sp, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(sp)
	if err != nil || !ok {
		t.Fatalf("Get after Put = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// The returned result is a private clone.
	got.Scheme = "MUTATED"
	got.Runs[1][2] = 0
	again, _, _ := st.Get(sp)
	if again.Scheme == "MUTATED" || again.Runs[1][2] != 42 {
		t.Fatal("mutating a returned result must not corrupt the cache")
	}
}

// TestDiskPersistence verifies a second store over the same directory sees
// the first store's results (disk hit, no compute).
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	st1, _ := New(dir)
	sp := spec(3)
	computes := 0
	if _, cached, err := st1.GetOrCompute(sp, func() (*sim.Result, error) {
		computes++
		return fakeResult(1), nil
	}); err != nil || cached {
		t.Fatalf("first compute: cached=%v err=%v", cached, err)
	}

	st2, _ := New(dir)
	res, cached, err := st2.GetOrCompute(sp, func() (*sim.Result, error) {
		computes++
		return fakeResult(2), nil
	})
	if err != nil || !cached {
		t.Fatalf("second store: cached=%v err=%v", cached, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if res == nil || res.Benchmark != "BARNES" {
		t.Fatalf("bad persisted result %+v", res)
	}
	if s := st2.Stats(); s.DiskHits != 1 || s.Computes != 0 {
		t.Fatalf("stats = %+v, want one disk hit and zero computes", s)
	}
}

// TestSingleflight pins the deduplication contract: N concurrent identical
// requests run exactly one computation.
func TestSingleflight(t *testing.T) {
	st, _ := New("") // memory-only
	sp := spec(4)
	const n = 32
	var (
		computes atomic.Int64
		release  = make(chan struct{})
		wg       sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := st.GetOrCompute(sp, func() (*sim.Result, error) {
				computes.Add(1)
				<-release // hold the leader so every follower piles up
				return fakeResult(9), nil
			})
			if err != nil || res == nil {
				t.Errorf("GetOrCompute: %v", err)
			}
		}()
	}
	// Let every follower attach to the in-flight call, then release the
	// leader.
	for st.Stats().Shared < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", c)
	}
	if s := st.Stats(); s.Shared != n-1 || s.Computes != 1 {
		t.Fatalf("stats = %+v, want %d shared / 1 compute", s, n-1)
	}
}

// TestCorruptEntryRecovers pins the self-healing contract: a damaged entry
// file is a miss, not a poison pill — the key recomputes and the next write
// replaces the file.
func TestCorruptEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	st, _ := New(dir)
	sp := spec(5)
	if err := st.Put(sp, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Backend().(*Disk).Path(sp.Key()), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := New(dir)
	if _, ok, err := st2.Get(sp); err != nil || ok {
		t.Fatalf("corrupt entry must read as a miss, got ok=%v err=%v", ok, err)
	}
	res, cached, err := st2.GetOrCompute(sp, func() (*sim.Result, error) { return fakeResult(2), nil })
	if err != nil || cached || res.CompletionTime != 2 {
		t.Fatalf("recompute over corrupt entry: cached=%v err=%v res=%+v", cached, err, res)
	}
	if s := st2.Stats(); s.CorruptEntries == 0 {
		t.Fatalf("corruption must be counted, stats %+v", s)
	}
	// The overwrite healed the file for future stores.
	st3, _ := New(dir)
	healed, ok, err := st3.Get(sp)
	if err != nil || !ok || healed.CompletionTime != 2 {
		t.Fatalf("healed entry: ok=%v err=%v res=%+v", ok, err, healed)
	}
}

// TestLRUEviction pins the memory-bound contract: a store with MaxEntries n
// never holds more than n results in memory, evicts least-recently-used
// first, and (with a disk backend) serves evicted keys from disk instead of
// recomputing.
func TestLRUEviction(t *testing.T) {
	st, err := Open(BackendConfig{Dir: t.TempDir(), MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if err := st.Put(spec(seed), fakeResult(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if ev := st.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}

	// Seed 1 was the oldest and is gone from memory — but the disk backend
	// still answers it, with no compute.
	computes := 0
	res, cached, err := st.GetOrCompute(spec(1), func() (*sim.Result, error) {
		computes++
		return fakeResult(99), nil
	})
	if err != nil || !cached || computes != 0 || res.CompletionTime != 1 {
		t.Fatalf("evicted key: cached=%v computes=%d res=%+v err=%v", cached, computes, res, err)
	}

	// Recency is refreshed on hit: touch seed 2, insert seed 4, and seed 1
	// (less recently used) is the one evicted.
	if _, ok, _ := st.Get(spec(2)); !ok {
		t.Fatal("seed 2 must still be in the store")
	}
	if err := st.Put(spec(4), fakeResult(4)); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	_, has1 := st.mem[spec(1).Key()]
	_, has2 := st.mem[spec(2).Key()]
	st.mu.Unlock()
	if has1 || !has2 {
		t.Fatalf("LRU order wrong: seed1 in mem=%v, seed2 in mem=%v", has1, has2)
	}
}

// TestLRUEvictionMemoryOnly verifies the bound also holds without a disk
// backend (the evicted result is simply recomputed next time).
func TestLRUEvictionMemoryOnly(t *testing.T) {
	st, err := Open(BackendConfig{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(spec(1), fakeResult(1))
	st.Put(spec(2), fakeResult(2))
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if _, ok, _ := st.Get(spec(1)); ok {
		t.Fatal("evicted entry must be gone from a memory-only store")
	}
	if _, err := Open(BackendConfig{MaxEntries: -1}); err == nil {
		t.Fatal("negative limit must be rejected")
	}
}

// TestGetByKey covers the raw-content-address lookup path: memory hit, disk
// fallback in a fresh process, spec recovery, and rejection of malformed
// keys (which must never touch the filesystem).
func TestGetByKey(t *testing.T) {
	dir := t.TempDir()
	st, _ := New(dir)
	sp := spec(1)
	if err := st.Put(sp, fakeResult(5)); err != nil {
		t.Fatal(err)
	}
	res, got, ok, err := st.GetByKey(sp.Key())
	if err != nil || !ok || res.CompletionTime != 5 || got.Benchmark != "BARNES" {
		t.Fatalf("GetByKey = %+v %+v %v %v", res, got, ok, err)
	}

	// A fresh store over the same directory recovers result AND spec from
	// the raw key alone.
	st2, _ := New(dir)
	res2, sp2, ok, err := st2.GetByKey(sp.Key())
	if err != nil || !ok || res2.CompletionTime != 5 {
		t.Fatalf("disk GetByKey = %+v %v %v", res2, ok, err)
	}
	if sp2.Key() != sp.Key() {
		t.Fatal("recovered spec must re-derive the same key")
	}

	for _, bad := range []string{"", "zz", "../../../../etc/passwd", "ABCD", sp.Key()[:40]} {
		if _, _, ok, err := st2.GetByKey(bad); ok || err != nil {
			t.Fatalf("malformed key %q: ok=%v err=%v, want clean miss", bad, ok, err)
		}
	}
}

// TestIndex enumerates memory-resident and disk-only entries.
func TestIndex(t *testing.T) {
	dir := t.TempDir()
	st, _ := New(dir)
	st.Put(spec(1), fakeResult(1))
	st.Put(spec(2), fakeResult(2))

	idx, err := st.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("index has %d entries, want 2", len(idx))
	}
	for _, e := range idx {
		if e.Benchmark != "BARNES" || e.Scheme != "S-NUCA" || e.Cores != 16 || !e.InMemory {
			t.Fatalf("bad index entry %+v", e)
		}
	}
	if idx[0].Key >= idx[1].Key {
		t.Fatal("index must be sorted by key")
	}

	// A fresh store sees the same entries as disk-only.
	st2, _ := New(dir)
	idx2, err := st2.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx2) != 2 || idx2[0].InMemory || idx2[1].InMemory {
		t.Fatalf("disk-only index = %+v", idx2)
	}

	// Memory-only stores index too.
	st3, _ := New("")
	st3.Put(spec(3), fakeResult(3))
	idx3, err := st3.Index()
	if err != nil || len(idx3) != 1 {
		t.Fatalf("memory-only index = %+v (%v)", idx3, err)
	}
}

// TestEnvelopeIsSelfDescribing checks the on-disk format records the spec
// next to the result.
func TestEnvelopeIsSelfDescribing(t *testing.T) {
	st, _ := New(t.TempDir())
	sp := spec(6)
	if err := st.Put(sp, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(st.Backend().(*Disk).Path(sp.Key()))
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	if e.Key != sp.Key() || e.Spec.Benchmark != "BARNES" || e.Result == nil {
		t.Fatalf("envelope incomplete: %+v", e)
	}
}

// TestObserverFieldsAreKeyNeutral pins that an observer never changes a
// run's content address — and is stripped from the canonical spec
// entirely.
func TestObserverFieldsAreKeyNeutral(t *testing.T) {
	bare := SpecFor("BARNES", config.Small(), sim.Options{Seed: 3})
	watched := SpecFor("BARNES", config.Small(), sim.Options{Seed: 3, Observer: obs.NewRecorder(0)})
	if bare.Key() != watched.Key() {
		t.Fatal("observer field changed the content address")
	}
	if watched.Options.Observer != nil {
		t.Fatalf("SpecFor must strip the observer, got %+v", watched.Options)
	}
}

// TestGC covers the age-based sweep: old entries die through the full
// Delete path, young and foreign-benchmark entries survive, dry runs
// delete nothing, and memory-only stores refuse rather than guess.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	st, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	old1, old2, young := spec(1), spec(2), spec(3)
	foreign := SpecFor("DEDUP", config.Small(), sim.Options{Seed: 1, OpsScale: 0.02})
	for _, sp := range []Spec{old1, old2, young, foreign} {
		if err := st.Put(sp, fakeResult(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Age three entries by backdating their files.
	past := time.Now().Add(-48 * time.Hour)
	for _, sp := range []Spec{old1, old2, foreign} {
		if err := os.Chtimes(st.Backend().(*Disk).Path(sp.Key()), past, past); err != nil {
			t.Fatal(err)
		}
	}

	// Dry run: reports two would-be deletions (foreign is excluded by the
	// benchmark filter), removes nothing.
	gs, err := st.GC(24*time.Hour, "BARNES", true)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Scanned != 4 || gs.Matched != 2 || gs.Deleted != 0 {
		t.Fatalf("dry run = %+v, want scanned 4 matched 2 deleted 0", gs)
	}
	if ks, _ := st.Keys(); len(ks) != 4 {
		t.Fatalf("dry run deleted entries: %d keys left", len(ks))
	}

	// Real sweep, no benchmark filter: both old BARNES entries and the old
	// DEDUP entry die; the young one survives everywhere.
	gs, err = st.GC(24*time.Hour, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Matched != 3 || gs.Deleted != 3 || gs.Undatable != 0 {
		t.Fatalf("sweep = %+v, want 3 deleted", gs)
	}
	ks, _ := st.Keys()
	if len(ks) != 1 || ks[0] != young.Key() {
		t.Fatalf("survivors = %v, want only %s", ks, young.Key())
	}
	if _, _, ok, _ := st.GetByKey(old1.Key()); ok {
		t.Fatal("deleted entry still readable")
	}

	// Memory-only stores cannot date entries and must say so.
	memSt, _ := New("")
	if _, err := memSt.GC(time.Hour, "", false); err == nil {
		t.Fatal("memory-only GC must error")
	}
}

// TestGCCollectsUndecodableEntry: an old entry that no longer decodes is
// still dated and collected, because GC walks keys rather than decoded
// specs. A benchmark filter cannot match it, so a filtered sweep leaves
// it alone.
func TestGCCollectsUndecodableEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1)
	if err := st.Put(sp, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	path := st.Backend().(*Disk).Path(sp.Key())
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}

	// A fresh process knows nothing of the entry but its file.
	st2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := st2.GC(24*time.Hour, sp.Benchmark, false)
	if err != nil || gs.Scanned != 1 || gs.Matched != 0 {
		t.Fatalf("filtered sweep = %+v (%v), want scanned 1 matched 0", gs, err)
	}
	gs, err = st2.GC(24*time.Hour, "", false)
	if err != nil || gs.Scanned != 1 || gs.Matched != 1 || gs.Deleted != 1 {
		t.Fatalf("sweep = %+v (%v), want scanned 1 matched 1 deleted 1", gs, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("undecodable entry survived GC (stat err %v)", err)
	}
}
