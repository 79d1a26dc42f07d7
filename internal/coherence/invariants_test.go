package coherence

import (
	"math/rand"
	"strings"
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
)

// TestSWMRUnderRandomTraffic drives every scheme with random multi-core
// read/write traffic while the engine's single-writer/multiple-reader
// version checker is armed: any stale copy read, inclusion violation, or
// missed invalidation panics inside the engine. This is the analogue of the
// paper's Graphite functional-correctness argument (§3.1).
func TestSWMRUnderRandomTraffic(t *testing.T) {
	schemes := []struct {
		name string
		opts Options
		mut  func(*config.Config)
	}{
		{"S-NUCA", Options{Scheme: SNUCA}, nil},
		{"R-NUCA", Options{Scheme: RNUCA}, nil},
		{"VR", Options{Scheme: VR}, nil},
		{"ASR-1", Options{Scheme: ASR, ASRLevel: 1}, nil},
		{"RT-3", Options{Scheme: LocalityAware}, nil},
		{"RT-1", Options{Scheme: LocalityAware}, func(c *config.Config) { c.RT = 1 }},
		{"RT-8", Options{Scheme: LocalityAware}, func(c *config.Config) { c.RT = 8 }},
		{"RT-3-complete", Options{Scheme: LocalityAware}, func(c *config.Config) { c.ClassifierK = 0 }},
		{"RT-3-k1", Options{Scheme: LocalityAware}, func(c *config.Config) { c.ClassifierK = 1 }},
		{"RT-3-cluster4", Options{Scheme: LocalityAware}, func(c *config.Config) { c.ClusterSize = 4 }},
		{"RT-3-plainLRU", Options{Scheme: LocalityAware}, func(c *config.Config) { c.Replacement = config.PlainLRU }},
		{"RT-3-oracle", Options{Scheme: LocalityAware}, func(c *config.Config) { c.LookupOracle = true }},
		{"RT-3-tlh", Options{Scheme: LocalityAware}, func(c *config.Config) { c.Replacement = config.TLHLRU }},
		{"RT-3-keepL1", Options{Scheme: LocalityAware}, func(c *config.Config) { c.KeepL1OnReplicaEvict = true }},
		{"RT-3-fullmap", Options{Scheme: LocalityAware}, func(c *config.Config) { c.AckwisePointers = 0 }},
		{"VR-keepL1", Options{Scheme: VR}, func(c *config.Config) { c.KeepL1OnReplicaEvict = true }},
	}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			stress(t, sc.opts, sc.mut, nil)
		})
	}
}

// stress drives an engine with CheckInvariants on through 60k random
// accesses over tiny caches, from every core: an instruction region, a
// per-core private region and a hot shared region with frequent writes.
// check, when non-nil, runs after every 1000th access.
func stress(t *testing.T, opts Options, mut func(*config.Config), check func(e *Engine)) {
	t.Helper()
	cfg := config.Small()
	// Tiny caches maximize evictions and replacement churn.
	cfg.L1ILines, cfg.L1DLines, cfg.LLCSliceLines = 16, 32, 128
	if mut != nil {
		mut(cfg)
	}
	opts.CheckInvariants = true
	e := New(cfg, opts)
	rng := rand.New(rand.NewSource(42))
	times := make([]mem.Cycles, cfg.Cores)
	for i := 0; i < 60000; i++ {
		c := mem.CoreID(rng.Intn(cfg.Cores))
		var op Op
		switch rng.Intn(10) {
		case 0, 1: // instruction region
			op = Op{Type: mem.IFetch,
				Line: mem.LineAddr(0x10000 + rng.Intn(128)), Class: mem.ClassInstruction}
		case 2, 3: // per-core private region
			op = Op{Type: mem.Load,
				Line: mem.LineAddr(0x20000 + int(c)*0x1000 + rng.Intn(64)), Class: mem.ClassPrivate}
			if rng.Intn(3) == 0 {
				op.Type = mem.Store
			}
		default: // hot shared region with frequent writes
			op = Op{Type: mem.Load,
				Line: mem.LineAddr(0x30000 + rng.Intn(200)), Class: mem.ClassSharedRW}
			if rng.Intn(5) == 0 {
				op.Type = mem.Store
			}
		}
		res := e.Access(c, times[c], op)
		if res.Done < times[c] {
			t.Fatalf("time went backwards: %d -> %d", times[c], res.Done)
		}
		times[c] = res.Done
		if check != nil && i%1000 == 999 {
			check(e)
		}
	}
}

// TestDeterminism: identical inputs produce identical timing and energy.
func TestDeterminism(t *testing.T) {
	run := func() (mem.Cycles, float64) {
		cfg := config.Small()
		e := New(cfg, Options{Scheme: LocalityAware, Seed: 9})
		rng := rand.New(rand.NewSource(3))
		var tm mem.Cycles
		for i := 0; i < 20000; i++ {
			c := mem.CoreID(rng.Intn(16))
			op := Op{Type: mem.Load, Line: mem.LineAddr(0x3000 + rng.Intn(512)), Class: mem.ClassSharedRW}
			if rng.Intn(7) == 0 {
				op.Type = mem.Store
			}
			tm = e.Access(c, tm, op).Done
		}
		return tm, e.Meter().Total()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d, %v) vs (%d, %v)", t1, e1, t2, e2)
	}
}

// TestEnergyMonotonicity: every access adds non-negative energy.
func TestEnergyMonotonicity(t *testing.T) {
	e := testEngine(LocalityAware)
	prev := e.Meter().Total()
	var tm mem.Cycles
	for i := 0; i < 1000; i++ {
		tm = rd(e, mem.CoreID(i%16), tm, mem.LineAddr(0x2000+i%97)).Done
		if tot := e.Meter().Total(); tot < prev {
			t.Fatal("energy decreased")
		} else {
			prev = tot
		}
	}
}

// TestBreakdownSumsToSpan: the latency components of every access sum
// exactly to its span, so aggregate breakdowns tile completion time.
func TestBreakdownSumsToSpan(t *testing.T) {
	e := testEngine(LocalityAware)
	rng := rand.New(rand.NewSource(5))
	var tm mem.Cycles
	for i := 0; i < 20000; i++ {
		c := mem.CoreID(rng.Intn(16))
		op := Op{Type: mem.Load, Line: mem.LineAddr(0x2000 + rng.Intn(300)), Class: mem.ClassSharedRW}
		if rng.Intn(9) == 0 {
			op.Type = mem.Store
		}
		res := e.Access(c, tm, op)
		var sum mem.Cycles
		for _, v := range res.Breakdown {
			sum += v
		}
		if sum != res.Done-tm {
			t.Fatalf("op %d: breakdown sums to %d, span is %d", i, sum, res.Done-tm)
		}
		tm = res.Done
	}
}

// TestRunTrackerHistogram: the Figure-1 tracker classifies run lengths into
// the right buckets.
func TestRunTrackerHistogram(t *testing.T) {
	rt := newRunTracker()
	// Core 0 reads line 1 twelve times, then core 1 writes (conflict).
	for i := 0; i < 12; i++ {
		rt.record(1, 0, false, mem.ClassSharedRW)
	}
	rt.record(1, 1, true, mem.ClassSharedRW)
	// Core 1's write run of 1, ended by eviction.
	rt.evicted(1)
	h := rt.finish()
	if got := h[mem.ClassSharedRW][2]; got != 12 { // >=10 bucket
		t.Fatalf("12-run accesses in >=10 bucket = %d, want 12", got)
	}
	if got := h[mem.ClassSharedRW][0]; got != 1 { // 1-2 bucket
		t.Fatalf("singleton run accesses = %d, want 1", got)
	}
}

// TestRunTrackerConcurrentReaders: reads from different cores do not
// conflict with each other (§1.1's run-length definition).
func TestRunTrackerConcurrentReaders(t *testing.T) {
	rt := newRunTracker()
	for i := 0; i < 5; i++ {
		rt.record(9, 0, false, mem.ClassSharedRO)
		rt.record(9, 1, false, mem.ClassSharedRO)
	}
	h := rt.finish()
	if got := h[mem.ClassSharedRO][1]; got != 10 { // two runs of 5 in [3-9]
		t.Fatalf("reader runs = %d accesses in [3-9], want 10", got)
	}
}

// TestRunTrackerWriteEndsOthers: a write ends every other core's run, and a
// subsequent foreign read ends the writer's run.
func TestRunTrackerWriteEndsOthers(t *testing.T) {
	rt := newRunTracker()
	for i := 0; i < 4; i++ {
		rt.record(3, 0, false, mem.ClassSharedRW)
	}
	rt.record(3, 1, true, mem.ClassSharedRW)  // ends core 0's run of 4
	rt.record(3, 0, false, mem.ClassSharedRW) // ends core 1's write run of 1
	h := rt.finish()
	if got := h[mem.ClassSharedRW][1]; got != 4 {
		t.Fatalf("[3-9] bucket = %d, want 4", got)
	}
	if got := h[mem.ClassSharedRW][0]; got != 2 { // run of 1 (write) + run of 1 (final read)
		t.Fatalf("[1-2] bucket = %d, want 2", got)
	}
}

// TestL1VersionRange pins the 32-bit L1 version under the checker: a home
// version past 2^32-1 panics where an L1 hit would compare it and where a
// fill would narrow it, so the SWMR check never passes on a truncated
// version.
func TestL1VersionRange(t *testing.T) {
	cfg := config.Small()
	e := New(cfg, Options{Scheme: SNUCA, CheckInvariants: true})
	op := Op{Type: mem.Load, Line: 0x1234, Class: mem.ClassSharedRO}
	e.Access(0, 0, op)
	e.homeEntry(e.homeOfLine(op.Line, 0), op.Line).Meta.dir.Version = 1 << 32
	for _, tc := range []struct {
		name string
		core mem.CoreID
	}{{"compared on an L1 hit", 0}, {"narrowed on a fill", 1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "32-bit version") {
					t.Errorf("version 2^32 %s: panic %q, want the 32-bit version panic", tc.name, msg)
				}
			}()
			e.Access(tc.core, 1000, op)
		}()
	}
}
