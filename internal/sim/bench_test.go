package sim

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/mem"
	"lard/internal/stats"
	"lard/internal/trace"
)

// BenchmarkCommit times one commit — the run aggregates and the scheduler
// update that retimes the core — without an observer: the simulator's own
// share of every simulated access after the engine returns.
func BenchmarkCommit(b *testing.B) {
	const n = 64
	st := &runState{
		sch:       newSched(n),
		breakdown: make([]stats.TimeBreakdown, n),
		miss:      make([]stats.MissCounts, n),
	}
	var results [256]coherence.AccessResult
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range results {
		r := &results[i]
		r.Miss = stats.MissType(rng.IntN(int(stats.NumMissTypes)))
		r.Breakdown[stats.L1ToLLCHome] = mem.Cycles(rng.IntN(100))
		r.Done = mem.Cycles(1 + rng.IntN(200))
	}
	var res coherence.AccessResult
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		now, c := st.sch.peek()
		res = results[i&255]
		res.Done += now
		st.commit(c, 10, &res)
	}
}

// TestRunAllocsPerFill guards the allocation rate of whole runs: a 16-core
// RT-3 run makes at most one heap allocation per five off-chip fills,
// set-up included, so a home-line birth that allocates fails it.
func TestRunAllocsPerFill(t *testing.T) {
	cfg := config.Small()
	for _, name := range []string{"DEDUP", "BARNES", "FLUIDANIM.", "LU-NC"} {
		p, err := trace.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Run(cfg, p, Options{Scheme: coherence.LocalityAware, OpsScale: 0.05})
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		fills := r.Miss[stats.OffChipMiss]
		t.Logf("%s: %d allocations, %d off-chip fills (%.3f per fill)", name, mallocs, fills, float64(mallocs)/float64(fills))
		if mallocs*5 > fills {
			t.Errorf("%s: %d allocations for %d off-chip fills, want at most one per five", name, mallocs, fills)
		}
	}
}
