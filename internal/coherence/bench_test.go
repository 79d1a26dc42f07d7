package coherence

import (
	"sync"
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/trace"
)

// benchAccess is one pre-decoded access of the benchmark workload.
type benchAccess struct {
	core mem.CoreID
	op   Op
}

// benchWorkload pre-generates a deterministic access stream so the benchmark
// times (and counts allocations for) the coherence engine alone, not trace
// generation.
func benchWorkload(tb testing.TB, cfg *config.Config) []benchAccess {
	tb.Helper()
	p, err := trace.ProfileByName("BARNES")
	if err != nil {
		tb.Fatal(err)
	}
	w := trace.Generate(p, cfg, 0.05, 1)
	var accs []benchAccess
	buf := make([]trace.Op, 256)
	for c, s := range w.Streams {
		for n := s.Fill(buf); n > 0; n = s.Fill(buf) {
			for _, op := range buf[:n] {
				if op.Barrier {
					continue
				}
				accs = append(accs, benchAccess{mem.CoreID(c), Op{
					Type:  op.Type,
					Line:  mem.LineOf(op.Addr),
					Class: op.Class,
				}})
			}
		}
	}
	return accs
}

// BenchmarkCoherenceAccess measures the steady-state per-access cost of the
// coherence engine (directory lookups, sharer bookkeeping, invalidation
// fan-out) under the locality-aware scheme. The engine is warmed with one
// full pass before timing so the page table and the spill tables have
// stopped growing; the timed passes exercise the alloc-free hot path.
// Directory entries and Limited-3 lists live in the LLC ways, so a home
// birth allocates nothing either.
func BenchmarkCoherenceAccess(b *testing.B) {
	benchAccessLoop(b, config.Small())
}

// BenchmarkCoherenceAccess64 is BenchmarkCoherenceAccess on the 64-core
// machine, whose 16 MB of LLC slice arrays no host cache holds, so every
// LLC line the engine reads is a likely host cache miss.
func BenchmarkCoherenceAccess64(b *testing.B) {
	benchAccessLoop(b, config.Default64())
}

// benchAccessLoop times the BARNES workload of cfg on a locality-aware
// engine after one warm-up pass.
func benchAccessLoop(b *testing.B, cfg *config.Config) {
	accs := benchWorkload(b, cfg)
	e := New(cfg, Options{Scheme: LocalityAware})
	t := mem.Cycles(0)
	for _, a := range accs { // warm-up pass
		t = e.Access(a.core, t, a.op).Done
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i%len(accs)]
		t = e.Access(a.core, t, a.op).Done
	}
}

// TestEnginesRaceFree drives several independent engines concurrently, the
// way RunMatrix's worker pool runs matrix members side by side. Engines
// must share no mutable state (the fan-out scratch buffers, the side-record
// table and the policies' bound classifiers are all per-engine); `go test
// -race` verifies it.
func TestEnginesRaceFree(t *testing.T) {
	cfg := config.Small()
	accs := benchWorkload(t, cfg)
	if len(accs) == 0 {
		t.Fatal("empty benchmark workload")
	}
	if testing.Short() && len(accs) > 2000 {
		accs = accs[:2000]
	}
	schemes := []Scheme{SNUCA, RNUCA, VR, ASR, LocalityAware}
	var wg sync.WaitGroup
	results := make([]mem.Cycles, len(schemes))
	for i, s := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(cfg, Options{Scheme: s})
			tm := mem.Cycles(0)
			for _, a := range accs {
				tm = e.Access(a.core, tm, a.op).Done
			}
			results[i] = tm
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r == 0 {
			t.Errorf("scheme %v finished at cycle 0", schemes[i])
		}
	}
}
