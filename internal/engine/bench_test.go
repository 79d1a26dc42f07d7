package engine

import (
	"context"
	"testing"
	"time"

	"lard"
	"lard/internal/resultstore"
)

// BenchmarkEngineSubmit measures the engine-admission layer of a request,
// below HTTP, over a disk-backed store:
//
//   - cached: Submit of a key held in the store's memory layer but no
//     longer in the job registry, the path every cached POST /v1/runs
//     takes once its job has been evicted;
//   - admit: Submit of a store miss, through the queue to a worker and a
//     stub RunFunc that returns at once.
func BenchmarkEngineSubmit(b *testing.B) {
	req := func(seed uint64) (string, Request) {
		r := Request{
			Benchmark: "BARNES",
			Scheme:    lard.LocalityAware(3),
			Options:   lard.Options{Cores: 16, OpsScale: 0.02, Seed: seed},
		}
		key, err := lard.KeyFor(r.Benchmark, r.Scheme, r.Options)
		if err != nil {
			b.Fatal(err)
		}
		return key, r
	}
	start := func(cfg Config) *Engine {
		st, err := resultstore.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		cfg.Store, cfg.Workers, cfg.MaxCompletedJobs = st, 1, 1
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Start()
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e.Shutdown(ctx)
		})
		return e
	}

	b.Run("cached", func(b *testing.B) {
		e := start(Config{})
		// Two stored keys submitted in turn: with a one-job registry each
		// Submit evicts the other key's job, so every call reads the store.
		var keys [2]string
		var reqs [2]Request
		for i := range keys {
			keys[i], reqs[i] = req(uint64(i))
			if _, _, err := lard.RunWithStore(e.Store(), reqs[i].Benchmark, reqs[i].Scheme, reqs[i].Options); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, shed, err := e.Submit(keys[i%2], reqs[i%2])
			if err != nil || shed || v.Status != StatusDone {
				b.Fatalf("cached submit = %s, shed %v, err %v", v.Status, shed, err)
			}
		}
	})

	b.Run("admit", func(b *testing.B) {
		ran := make(chan struct{})
		stub := func(ctx context.Context, st *resultstore.Store, bench string, s lard.Scheme, o lard.Options) (*lard.Result, bool, error) {
			ran <- struct{}{}
			return &lard.Result{Benchmark: bench, Scheme: s.Label(), CompletionCycles: 1}, false, nil
		}
		e := start(Config{Run: stub})
		// The stub stores nothing, and a key's job is evicted long before
		// the key comes round again, so every Submit is an admitted miss.
		const pool = 64
		var keys [pool]string
		var reqs [pool]Request
		for i := range keys {
			keys[i], reqs[i] = req(uint64(1000 + i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, shed, err := e.Submit(keys[i%pool], reqs[i%pool])
			if err != nil || shed || v.Status != StatusQueued {
				b.Fatalf("admitted submit = %s, shed %v, err %v", v.Status, shed, err)
			}
			<-ran
		}
	})
}
