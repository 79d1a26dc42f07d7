// Package harness regenerates every table and figure of the paper's
// evaluation (§4): the scheme-comparison matrices of Figures 6-8, the
// Limited-k sensitivity of Figure 9, the cluster-size sensitivity of Figure
// 10, the run-length motivation data of Figure 1, and the §4.2 replacement-
// policy and §2.3.2 lookup-oracle ablations. cmd/lard-bench and the
// repository's Go benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"lard"
	"lard/internal/resultstore"
	"lard/internal/sim"
	"lard/internal/trace"
)

// Base configures a whole experiment campaign.
type Base struct {
	// Cores selects the machine: 64 (Table 1), 16 or 4 (scaled-down);
	// 0 defaults to 64. Any other value is rejected.
	Cores int
	// OpsScale scales per-core operation counts.
	OpsScale float64
	// Seed selects the workload instance.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Benchmarks restricts the benchmark set (nil = all 21).
	Benchmarks []string
	// Store, when non-nil, caches every simulation by its content address:
	// repeated campaigns over the same (config, scheme, benchmark, seed,
	// scale) reuse stored results instead of re-simulating.
	Store *resultstore.Store
}

// StoreSummary renders the campaign's cache effectiveness after a run —
// simulations actually executed versus results served from memory, the
// persistent backend, or shared in-flight computations — plus the
// backend's entry count. It returns "" without a store.
func (b Base) StoreSummary() string {
	if b.Store == nil {
		return ""
	}
	st := b.Store.Stats()
	s := fmt.Sprintf("store: %d simulated, %d from memory, %d from backend, %d shared in flight",
		st.Computes, st.MemHits, st.DiskHits, st.Shared)
	if bs, ok := b.Store.BackendStats(); ok {
		s += fmt.Sprintf("; %s backend: %d entries", bs.Kind, bs.Entries)
	}
	return s
}

// cores returns the effective core count (0 defaults to 64). It does not
// validate; config.ForCores does.
func (b Base) cores() int {
	if b.Cores == 0 {
		return 64
	}
	return b.Cores
}

func (b Base) benchmarks() []string {
	if len(b.Benchmarks) > 0 {
		return b.Benchmarks
	}
	return trace.Names()
}

// Variant is one scheme configuration column of a figure.
type Variant struct {
	// Label is the column header (figure nomenclature).
	Label string
	// Scheme is the run's scheme, with every parameter explicit: the
	// harness simulates exactly what lard.Run would, under the same store
	// key.
	Scheme lard.Scheme
	// AutoASR reports the best of the five lard.ASRLevels per benchmark by
	// energy-delay product (§3.3) instead of Scheme's own level; Scheme
	// must be ASR.
	AutoASR bool
	// TrackRuns enables the Figure-1 histogram.
	TrackRuns bool
}

// StandardVariants returns the scheme columns of Figures 6-8 (the seven
// paper columns, in figure order), as the facade's scheme registrations
// declare them (lard.FigureColumns).
func StandardVariants() []Variant {
	var vs []Variant
	for _, col := range lard.FigureColumns() {
		vs = append(vs, Variant{Label: col.Scheme.Label(), Scheme: col.Scheme, AutoASR: col.AutoASR})
	}
	return vs
}

// Run executes one (benchmark, variant) simulation through the facade's
// run path, so it shares the facade's validation and store keys. An
// AutoASR variant runs the five ASR levels and returns the one with the
// lowest energy-delay product, as the paper's methodology does. The levels
// are independent simulations, so they run concurrently; the pick is an
// index-ordered scan, so a tie goes to the earliest level.
func Run(base Base, bench string, v Variant) (*sim.Result, error) {
	schemes := []lard.Scheme{v.Scheme}
	if v.AutoASR {
		var err error
		if schemes, err = lard.ASRCandidates(v.Scheme); err != nil {
			return nil, fmt.Errorf("harness: variant %q: %w", v.Label, err)
		}
	}
	opts := lard.Options{Cores: base.Cores, OpsScale: base.OpsScale, Seed: base.Seed, TrackRuns: v.TrackRuns}
	results := make([]*sim.Result, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = lard.Simulate(context.Background(), base.Store, bench, s, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", bench, v.Label, err)
		}
	}
	best, bestEDP := results[0], edp(results[0])
	for _, res := range results[1:] {
		if e := edp(res); e < bestEDP {
			best, bestEDP = res, e
		}
	}
	best.Scheme = v.Label
	return best, nil
}

// edp is a run's energy-delay product, the AutoASR selection metric.
func edp(r *sim.Result) float64 { return r.EnergyTotal() * float64(r.CompletionTime) }

// Matrix holds the results of a benchmark x variant campaign.
type Matrix struct {
	Benches  []string
	Variants []Variant
	// Results[bench][label] is the run result.
	Results map[string]map[string]*sim.Result
}

// RunMatrix executes every (benchmark, variant) pair, fanning the
// independent simulations out over Parallelism workers.
func RunMatrix(base Base, variants []Variant) (*Matrix, error) {
	benches := base.benchmarks()
	m := &Matrix{
		Benches:  benches,
		Variants: variants,
		Results:  make(map[string]map[string]*sim.Result, len(benches)),
	}
	for _, b := range benches {
		m.Results[b] = make(map[string]*sim.Result, len(variants))
	}
	type job struct {
		bench string
		v     Variant
	}
	jobs := make(chan job)
	par := base.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := Run(base, j.bench, j.v)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					m.Results[j.bench][j.v.Label] = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range benches {
		for _, v := range variants {
			jobs <- job{b, v}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// Get returns the result for (bench, label).
func (m *Matrix) Get(bench, label string) *sim.Result { return m.Results[bench][label] }
