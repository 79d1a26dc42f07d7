// Package harness regenerates every table and figure of the paper's
// evaluation (§4): the scheme-comparison matrices of Figures 6-8, the
// Limited-k sensitivity of Figure 9, the cluster-size sensitivity of Figure
// 10, the run-length motivation data of Figure 1, and the §4.2 replacement-
// policy and §2.3.2 lookup-oracle ablations. cmd/lard-bench and the
// repository's Go benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"errors"
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
	// TrackRuns collects the Figure-1 run-length histogram in every run.
	TrackRuns bool
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
	if b.Store.Backend() != nil {
		s += fmt.Sprintf("; disk backend: %d entries", st.DiskEntries)
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
	// must be ASR. It is the harness's spelling of lard.CampaignSpec's
	// AutoASR, which applies to a whole matrix, so a matrix cannot mix
	// auto-tuned and fixed-level ASR variants.
	AutoASR bool
}

// StandardVariants returns the scheme columns of Figures 6-8 (the seven
// paper columns, in figure order), as the facade's scheme registrations
// declare them (lard.FigureSchemes), with the ASR column auto-tuned.
func StandardVariants() []Variant {
	var vs []Variant
	for _, s := range lard.FigureSchemes() {
		_, notASR := lard.ASRCandidates(s)
		vs = append(vs, Variant{Label: s.Label(), Scheme: s, AutoASR: notASR == nil})
	}
	return vs
}

// Run executes one (benchmark, variant) cell: RunMatrix over one
// benchmark and one variant.
func Run(base Base, bench string, v Variant) (*sim.Result, error) {
	base.Benchmarks = []string{bench}
	m, err := RunMatrix(base, []Variant{v})
	if err != nil {
		return nil, err
	}
	return m.Get(bench, v.Label), nil
}

// Matrix holds the results of a benchmark x variant campaign.
type Matrix struct {
	Benches  []string
	Variants []Variant
	// Results[bench][label] is the run result.
	Results map[string]map[string]*sim.Result
}

// RunMatrix executes every (benchmark, variant) cell as one local
// campaign: the same expansion (lard.ExpandCampaign) and the same pick
// (lard.ReportedMembers) as the run service, so a local figure and a
// served one agree cell for cell. Every member simulates through the
// facade's run path (lard.Simulate), sharing its validation and store
// keys, on one pool of Parallelism workers in bench-major order. Each cell
// holds a copy of the reported result, its Scheme set to the variant's
// label.
func RunMatrix(base Base, variants []Variant) (*Matrix, error) {
	benches := base.benchmarks()
	opts := lard.Options{Cores: base.Cores, OpsScale: base.OpsScale, Seed: base.Seed, TrackRuns: base.TrackRuns}
	spec := lard.CampaignSpec{Benchmarks: benches, Options: opts}
	fixedASR := false
	for _, v := range variants {
		_, notASR := lard.ASRCandidates(v.Scheme)
		switch {
		case v.AutoASR && notASR != nil:
			return nil, fmt.Errorf("harness: variant %q: %w", v.Label, notASR)
		case v.AutoASR:
			spec.AutoASR = true
		case notASR == nil:
			fixedASR = true
		}
		spec.Schemes = append(spec.Schemes, v.Scheme)
	}
	if spec.AutoASR && fixedASR {
		return nil, errors.New("harness: a matrix auto-tunes all of its ASR variants or none; it cannot mix AutoASR and fixed-level ASR variants")
	}
	members, err := lard.ExpandCampaign(spec)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	results := make([]*sim.Result, len(members))
	errs := make([]error, len(members))
	par := base.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	slots := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, mb := range members {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			results[i], _, errs[i] = lard.Simulate(context.Background(), base.Store, mb.Benchmark, mb.Scheme, mb.Options)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", members[i].Benchmark, members[i].Name, err)
		}
	}

	reported := lard.ReportedMembers(members, func(i int) (float64, uint64) {
		return results[i].EnergyTotal(), uint64(results[i].CompletionTime)
	})
	index := make(map[string]int, len(members))
	for i, mb := range members {
		index[mb.Key] = i
	}
	m := &Matrix{
		Benches:  benches,
		Variants: variants,
		Results:  make(map[string]map[string]*sim.Result, len(benches)),
	}
	for _, b := range benches {
		m.Results[b] = make(map[string]*sim.Result, len(variants))
		for _, v := range variants {
			// An auto-tuned variant's own level is one of its column's
			// candidates, so its key finds the column's cell too.
			key, err := lard.KeyFor(b, v.Scheme, opts)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", b, v.Label, err)
			}
			res := *results[reported[index[key]]]
			res.Scheme = v.Label
			m.Results[b][v.Label] = &res
		}
	}
	return m, nil
}

// Get returns the result for (bench, label).
func (m *Matrix) Get(bench, label string) *sim.Result { return m.Results[bench][label] }
