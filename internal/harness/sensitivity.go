package harness

import (
	"fmt"

	"lard"
	"lard/internal/config"
	"lard/internal/sim"
	"lard/internal/stats"
)

// Fig9Benches is the benchmark subset plotted by Figure 9 (the others are
// insensitive to the classifier, like DEDUP).
var Fig9Benches = []string{
	"RADIX", "LU-NC", "CHOLESKY", "BARNES", "OCEAN-NC", "WATER-NSQ",
	"RAYTRACE", "VOLREND", "STREAMCLUS.", "DEDUP", "FERRET", "FACESIM",
	"CONCOMP",
}

// Fig9Ks are the Limited-k classifier sizes of Figure 9; 64 denotes the
// Complete classifier.
var Fig9Ks = []int{1, 3, 5, 7, 64}

// Fig9LimitedK runs the Limited-k sensitivity study at RT=3 and renders the
// energy and completion-time tables normalized to the Complete classifier.
// It returns the tables and the normalized values keyed [bench][k], with the
// Complete column keyed under the largest Fig9K (64).
func Fig9LimitedK(base Base) (string, map[string]map[int][2]float64, error) {
	if base.Benchmarks == nil {
		base.Benchmarks = Fig9Benches
	}
	// Limited-k sizes below the machine's core count, plus one Complete
	// column: a Limited-k with k >= cores IS the Complete classifier, so
	// emitting every clamped k as its own column (which Cores: 4 would do
	// three times over) would simulate identical configurations under
	// distinct, misleading labels.
	var variants []Variant
	var ks []int // the k each column reports under in vals
	for _, k := range Fig9Ks {
		if k >= base.cores() {
			continue
		}
		variants = append(variants, Variant{
			Label:  fmt.Sprintf("k=%d", k),
			Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: k, ClusterSize: 1},
		})
		ks = append(ks, k)
	}
	const baseLabel = "Complete"
	variants = append(variants, Variant{
		Label:  baseLabel,
		Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 0, ClusterSize: 1},
	})
	ks = append(ks, Fig9Ks[len(Fig9Ks)-1])
	m, err := RunMatrix(base, variants)
	if err != nil {
		return "", nil, err
	}
	out, vals := sweepTables(m, ks, baseLabel,
		"Figure 9a: energy vs Limited-k (normalized to Complete, RT=3)",
		"Figure 9b: completion time vs Limited-k (normalized to Complete, RT=3)")
	return out, vals, nil
}

// Fig10Benches is the benchmark subset plotted by Figure 10.
var Fig10Benches = []string{
	"RADIX", "LU-NC", "BARNES", "WATER-NSQ", "RAYTRACE", "VOLREND",
	"BLACKSCH.", "SWAPTIONS", "FLUIDANIM.", "STREAMCLUS.", "FERRET",
	"BODYTRACK", "FACESIM", "PATRICIA", "CONCOMP",
}

// Fig10Clusters are the cluster sizes of Figure 10.
var Fig10Clusters = []int{1, 4, 16, 64}

// Fig10ClusterSize runs the cluster-size sensitivity study at RT=3,
// normalized to cluster size 1. It returns the tables and values keyed
// [bench][clusterSize] as {energy, time} pairs.
func Fig10ClusterSize(base Base) (string, map[string]map[int][2]float64, error) {
	if base.Benchmarks == nil {
		base.Benchmarks = Fig10Benches
	}
	// Reject unsupported core counts before deriving the sweep from them:
	// an invalid count must fail loudly here, not produce an empty cluster
	// list and a vacuous matrix.
	if _, err := config.ForCores(base.Cores); err != nil {
		return "", nil, err
	}
	candidates := Fig10Clusters
	if base.cores() < 64 {
		candidates = []int{1, 2, 4, 16} // scaled-down machine
	}
	// A cluster must tile the machine: keep only divisors of the core
	// count, so the 4-core preset sweeps {1, 2, 4} instead of failing
	// validation on C-16.
	var clusters []int
	for _, c := range candidates {
		if c <= base.cores() && base.cores()%c == 0 {
			clusters = append(clusters, c)
		}
	}
	var variants []Variant
	for _, c := range clusters {
		variants = append(variants, Variant{
			Label:  fmt.Sprintf("C-%d", c),
			Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: c},
		})
	}
	m, err := RunMatrix(base, variants)
	if err != nil {
		return "", nil, err
	}
	out, vals := sweepTables(m, clusters, "C-1",
		"Figure 10a: energy vs cluster size (normalized to C-1, RT=3)",
		"Figure 10b: completion time vs cluster size (normalized to C-1, RT=3)")
	return out, vals, nil
}

// ReplacementAblation compares the paper's modified-LRU LLC replacement
// against plain LRU and the temporal-locality-hint alternative it cites,
// under RT-3 (§2.2.4/§4.2). It returns the table and the modified/plain
// ratios keyed [bench] as {energy, time}.
func ReplacementAblation(base Base) (string, map[string][2]float64, error) {
	variants := []Variant{
		{Label: "mod-LRU", Scheme: lard.LocalityAware(3)},
		{Label: "LRU", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1, PlainLRU: true}},
		{Label: "TLH-LRU", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1, TLH: true}},
	}
	m, err := RunMatrix(base, variants)
	if err != nil {
		return "", nil, err
	}
	headers := []string{"Benchmark", "energy mod/LRU", "time mod/LRU", "energy mod/TLH", "time mod/TLH"}
	vals := make(map[string][2]float64)
	var rows [][]string
	for _, b := range m.Benches {
		mod, lru, tlh := m.Get(b, "mod-LRU"), m.Get(b, "LRU"), m.Get(b, "TLH-LRU")
		e := mod.EnergyTotal() / lru.EnergyTotal()
		t := float64(mod.CompletionTime) / float64(lru.CompletionTime)
		et := mod.EnergyTotal() / tlh.EnergyTotal()
		tt := float64(mod.CompletionTime) / float64(tlh.CompletionTime)
		vals[b] = [2]float64{e, t}
		rows = append(rows, []string{b,
			fmt.Sprintf("%.3f", e), fmt.Sprintf("%.3f", t),
			fmt.Sprintf("%.3f", et), fmt.Sprintf("%.3f", tt)})
	}
	return "§4.2: modified-LRU vs plain LRU and TLH-LRU (RT-3; <1 means modified-LRU wins)\n" +
		stats.Table(headers, rows), vals, nil
}

// ReplicaEvictAblation compares the paper's back-invalidation on replica
// eviction against the rejected keep-L1-valid strategy (§2.2.3); the paper
// reports a negligible difference.
func ReplicaEvictAblation(base Base) (string, map[string][2]float64, error) {
	return pairAblation(base,
		Variant{Label: "back-inv", Scheme: lard.LocalityAware(3)},
		Variant{Label: "keep-L1", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1, KeepL1OnReplicaEvict: true}},
		"§2.2.3: back-invalidation vs keep-L1 replica eviction (paper: negligible difference)",
		"back/keep", "%.3f")
}

// OracleAblation compares the always-lookup policy against the §2.3.2
// dynamic oracle under RT-3; the paper reports a <1 % difference.
func OracleAblation(base Base) (string, map[string][2]float64, error) {
	return pairAblation(base,
		Variant{Label: "lookup", Scheme: lard.LocalityAware(3)},
		Variant{Label: "oracle", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1, LookupOracle: true}},
		"§2.3.2: always-lookup vs dynamic oracle (RT-3; paper reports <1% apart)",
		"lookup/oracle", "%.4f")
}

// pairAblation runs variants a and b and renders their energy and
// completion-time ratios a/b per benchmark, returning the table and the
// ratios keyed [bench] as {energy, time}.
func pairAblation(base Base, a, b Variant, title, ratio, format string) (string, map[string][2]float64, error) {
	m, err := RunMatrix(base, []Variant{a, b})
	if err != nil {
		return "", nil, err
	}
	headers := []string{"Benchmark", "energy " + ratio, "time " + ratio}
	vals := make(map[string][2]float64)
	var rows [][]string
	for _, bench := range m.Benches {
		ra, rb := m.Get(bench, a.Label), m.Get(bench, b.Label)
		e := ra.EnergyTotal() / rb.EnergyTotal()
		t := float64(ra.CompletionTime) / float64(rb.CompletionTime)
		vals[bench] = [2]float64{e, t}
		rows = append(rows, []string{bench, fmt.Sprintf(format, e), fmt.Sprintf(format, t)})
	}
	return title + "\n" + stats.Table(headers, rows), vals, nil
}

// sweepTables renders a sensitivity sweep's energy and completion-time
// tables, each normalized per benchmark to the ref column and closed by a
// GEOMEAN row. It returns them with the normalized {energy, time} pairs,
// keyed [bench][keys[i]] for the matrix's variant i.
func sweepTables(m *Matrix, keys []int, ref, energyTitle, timeTitle string) (string, map[string]map[int][2]float64) {
	vals := make(map[string]map[int][2]float64)
	render := func(title string, metric func(*sim.Result) float64, idx int) string {
		headers := append([]string{"Benchmark"}, labels(m.Variants)...)
		var rows [][]string
		geos := make([][]float64, len(m.Variants))
		for _, b := range m.Benches {
			base := metric(m.Get(b, ref))
			row := []string{b}
			for i, v := range m.Variants {
				val := metric(m.Get(b, v.Label)) / base
				if vals[b] == nil {
					vals[b] = make(map[int][2]float64)
				}
				pair := vals[b][keys[i]]
				pair[idx] = val
				vals[b][keys[i]] = pair
				geos[i] = append(geos[i], val)
				row = append(row, fmt.Sprintf("%.3f", val))
			}
			rows = append(rows, row)
		}
		gr := []string{"GEOMEAN"}
		for i := range m.Variants {
			gr = append(gr, fmt.Sprintf("%.3f", stats.Geomean(geos[i])))
		}
		rows = append(rows, gr)
		return title + "\n" + stats.Table(headers, rows)
	}
	return render(energyTitle, func(r *sim.Result) float64 { return r.EnergyTotal() }, 0) + "\n" +
		render(timeTitle, func(r *sim.Result) float64 { return float64(r.CompletionTime) }, 1), vals
}

func labels(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Label
	}
	return out
}
