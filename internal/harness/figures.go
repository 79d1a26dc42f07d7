package harness

import (
	"fmt"
	"strings"

	"lard"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/sim"
	"lard/internal/stats"
)

// Fig6Energy renders the Figure-6 table: total energy per (benchmark,
// scheme) normalized to S-NUCA, with the arithmetic average row the paper
// plots. It returns the table text and the per-scheme averages.
func Fig6Energy(m *Matrix) (string, map[string]float64) {
	return normalizedTable(m, "Figure 6: energy (normalized to S-NUCA)",
		func(r *sim.Result) float64 { return r.EnergyTotal() })
}

// Fig7Time renders the Figure-7 table: completion time normalized to S-NUCA.
func Fig7Time(m *Matrix) (string, map[string]float64) {
	return normalizedTable(m, "Figure 7: completion time (normalized to S-NUCA)",
		func(r *sim.Result) float64 { return float64(r.CompletionTime) })
}

// normalizedTable renders metric(bench, scheme)/metric(bench, S-NUCA) for
// every cell plus an Average row (the paper plots averages, not geomeans,
// for Figures 6-7).
func normalizedTable(m *Matrix, title string, metric func(*sim.Result) float64) (string, map[string]float64) {
	return RenderNormalizedTable(title, m.Benches, labels(m.Variants), "S-NUCA",
		func(bench, label string) float64 { return metric(m.Get(bench, label)) })
}

// RenderNormalizedTable renders a figure-style benchmark x column table from
// an arbitrary metric surface: each row is normalized to its baselineCol
// cell (no normalization when baselineCol is empty) and an AVERAGE row is
// appended, matching the paper's Figures 6-7 presentation. It returns the
// table text and the per-column averages. This is the rendering seam shared
// by the in-process figure campaigns (which hold sim.Results) and the run
// service's campaign endpoint (which holds exported results).
func RenderNormalizedTable(title string, benches, cols []string, baselineCol string, value func(bench, col string) float64) (string, map[string]float64) {
	headers := append([]string{"Benchmark"}, cols...)
	var rows [][]string
	sums := make(map[string]float64, len(cols))
	for _, b := range benches {
		base := 1.0
		if baselineCol != "" {
			base = value(b, baselineCol)
		}
		row := []string{b}
		for _, c := range cols {
			val := value(b, c) / base
			sums[c] += val
			row = append(row, fmt.Sprintf("%.3f", val))
		}
		rows = append(rows, row)
	}
	avg := make(map[string]float64, len(cols))
	avgRow := []string{"AVERAGE"}
	for _, c := range cols {
		avg[c] = sums[c] / float64(len(benches))
		avgRow = append(avgRow, fmt.Sprintf("%.3f", avg[c]))
	}
	rows = append(rows, avgRow)
	return title + "\n" + stats.Table(headers, rows), avg
}

// EnergyBreakdownTable renders the per-component energy stack of one
// benchmark across schemes (the per-benchmark bars of Figure 6), normalized
// to the S-NUCA total.
func EnergyBreakdownTable(m *Matrix, bench string) string {
	headers := append([]string{"Component"}, labels(m.Variants)...)
	base := m.Get(bench, "S-NUCA").EnergyTotal()
	var rows [][]string
	for c := 0; c < energy.NumComponents; c++ {
		row := []string{energy.Component(c).String()}
		for _, v := range m.Variants {
			row = append(row, fmt.Sprintf("%.3f", m.Get(bench, v.Label).EnergyPJ[c]/base))
		}
		rows = append(rows, row)
	}
	total := []string{"TOTAL"}
	for _, v := range m.Variants {
		total = append(total, fmt.Sprintf("%.3f", m.Get(bench, v.Label).EnergyTotal()/base))
	}
	rows = append(rows, total)
	return fmt.Sprintf("Figure 6 (%s): energy breakdown (normalized to S-NUCA total)\n", bench) +
		stats.Table(headers, rows)
}

// TimeBreakdownTable renders the per-component completion-time stack of one
// benchmark across schemes (the per-benchmark bars of Figure 7).
func TimeBreakdownTable(m *Matrix, bench string) string {
	headers := append([]string{"Component"}, labels(m.Variants)...)
	base := float64(m.Get(bench, "S-NUCA").Time.Total())
	var rows [][]string
	for c := 0; c < stats.NumTimeComponents; c++ {
		row := []string{stats.TimeComponent(c).String()}
		for _, v := range m.Variants {
			row = append(row, fmt.Sprintf("%.3f", float64(m.Get(bench, v.Label).Time[c])/base))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figure 7 (%s): completion-time breakdown (normalized to S-NUCA)\n", bench) +
		stats.Table(headers, rows)
}

// Fig8MissTypes renders the Figure-8 table: the L1-miss service breakdown
// (replica hit / home hit / off-chip) as percentages per cell.
func Fig8MissTypes(m *Matrix) string {
	headers := append([]string{"Benchmark"}, labels(m.Variants)...)
	var rows [][]string
	for _, b := range m.Benches {
		row := []string{b}
		for _, v := range m.Variants {
			r := m.Get(b, v.Label)
			misses := float64(r.Miss.L1Misses())
			row = append(row, fmt.Sprintf("%2.0f/%2.0f/%2.0f",
				100*float64(r.Miss[stats.LLCReplicaHit])/misses,
				100*float64(r.Miss[stats.LLCHomeHit])/misses,
				100*float64(r.Miss[stats.OffChipMiss])/misses))
		}
		rows = append(rows, row)
	}
	return "Figure 8: L1 miss breakdown (% replica-hit / home-hit / off-chip)\n" +
		stats.Table(headers, rows)
}

// Headline computes the §4.1 headline numbers: the average energy and
// completion-time reduction of RT-3 relative to VR, ASR, R-NUCA and S-NUCA.
// The paper reports 16/14/13/21 % energy and 4/9/6/13 % time.
func Headline(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Headline (§4.1): average reduction of RT-3 vs baseline")
	for _, baseline := range []string{"VR", "ASR", "R-NUCA", "S-NUCA"} {
		var esum, tsum float64
		for _, bench := range m.Benches {
			rt := m.Get(bench, "RT-3")
			bl := m.Get(bench, baseline)
			esum += 1 - rt.EnergyTotal()/bl.EnergyTotal()
			tsum += 1 - float64(rt.CompletionTime)/float64(bl.CompletionTime)
		}
		n := float64(len(m.Benches))
		fmt.Fprintf(&b, "  vs %-7s energy -%4.1f%%   completion time -%4.1f%%\n",
			baseline, 100*esum/n, 100*tsum/n)
	}
	return b.String()
}

// Fig1RunLengths runs S-NUCA with run-length tracking for every benchmark
// and renders the Figure-1 distribution: percentage of LLC accesses per
// (data class, run-length bucket).
func Fig1RunLengths(base Base) (string, map[string]*stats.RunLengthHist, error) {
	v := Variant{Label: "S-NUCA", Scheme: lard.SNUCA()}
	base.TrackRuns = true
	headers := []string{"Benchmark"}
	for c := 0; c < mem.NumDataClasses; c++ {
		for bkt := 0; bkt < stats.NumRunBuckets; bkt++ {
			headers = append(headers, fmt.Sprintf("%s%s",
				shortClass(mem.DataClass(c)), stats.RunBucket(bkt)))
		}
	}
	m, err := RunMatrix(base, []Variant{v})
	if err != nil {
		return "", nil, err
	}
	hists := make(map[string]*stats.RunLengthHist)
	var rows [][]string
	for _, bench := range base.benchmarks() {
		res := m.Get(bench, v.Label)
		hists[bench] = res.Runs
		row := []string{bench}
		for c := 0; c < mem.NumDataClasses; c++ {
			for bkt := 0; bkt < stats.NumRunBuckets; bkt++ {
				row = append(row, fmt.Sprintf("%4.1f",
					100*res.Runs.Share(mem.DataClass(c), stats.RunBucket(bkt))))
			}
		}
		rows = append(rows, row)
	}
	return "Figure 1: LLC access distribution by data class and run-length (% of LLC accesses, S-NUCA)\n" +
		stats.Table(headers, rows), hists, nil
}

func shortClass(c mem.DataClass) string {
	switch c {
	case mem.ClassPrivate:
		return "P"
	case mem.ClassInstruction:
		return "I"
	case mem.ClassSharedRO:
		return "RO"
	default:
		return "RW"
	}
}
