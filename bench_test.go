// Benchmarks regenerating the paper's tables and figures (testing.B).
//
// Each benchmark runs the corresponding experiment on the scaled-down
// 16-core machine so `go test -bench=.` completes quickly, and reports the
// experiment's headline quantities as custom metrics (normalized energy and
// completion time, exactly what the figures plot). The full Table-1 (64
// core) campaign is produced by cmd/lard-bench.
//
// Metric naming: norm-<quantity>-<scheme-or-config>. Values are ratios to
// the experiment's baseline (S-NUCA for Figures 6/7, Complete classifier
// for Figure 9, cluster size 1 for Figure 10).
package lard_test

import (
	"testing"
	"time"

	"lard"
	"lard/internal/harness"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/sim"
	"lard/internal/stats"
)

// benchBase is the campaign configuration used by every benchmark: the
// 16-core machine at a trace scale long enough for steady-state replication
// (several write rounds of every profile's sharing pattern).
func benchBase(benches ...string) harness.Base {
	return harness.Base{Cores: 16, OpsScale: 0.5, Benchmarks: benches}
}

// fig67Benches is a representative subset spanning the paper's behaviour
// classes (full 21-benchmark tables come from cmd/lard-bench): a flagship
// replication winner (BARNES), an R-NUCA-optimal private benchmark (DEDUP),
// a streaming no-benefit benchmark (FLUIDANIM.), a false-sharing benchmark
// (BLACKSCH.), a migratory benchmark (LU-NC) and a widely-shared one
// (STREAMCLUS.).
var fig67Benches = []string{"BARNES", "DEDUP", "FLUIDANIM.", "BLACKSCH.", "LU-NC", "STREAMCLUS."}

// runMainMatrix executes the Figures 6-8 scheme matrix once per benchmark
// iteration and reports per-scheme averages.
func runMainMatrix(b *testing.B) *harness.Matrix {
	b.Helper()
	var m *harness.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.RunMatrix(benchBase(fig67Benches...), harness.StandardVariants())
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkFig6Energy regenerates the Figure-6 comparison: total dynamic
// energy per scheme, normalized to S-NUCA and averaged over the benchmarks.
func BenchmarkFig6Energy(b *testing.B) {
	m := runMainMatrix(b)
	_, avg := harness.Fig6Energy(m)
	for scheme, v := range avg {
		b.ReportMetric(v, "norm-energy-"+scheme)
	}
}

// BenchmarkFig7CompletionTime regenerates the Figure-7 comparison:
// completion time per scheme, normalized to S-NUCA.
func BenchmarkFig7CompletionTime(b *testing.B) {
	m := runMainMatrix(b)
	_, avg := harness.Fig7Time(m)
	for scheme, v := range avg {
		b.ReportMetric(v, "norm-time-"+scheme)
	}
}

// BenchmarkFig8MissTypes regenerates the Figure-8 breakdown and reports the
// replica-hit fraction of L1 misses for the locality-aware protocol.
func BenchmarkFig8MissTypes(b *testing.B) {
	m := runMainMatrix(b)
	for _, bench := range []string{"BARNES", "STREAMCLUS."} {
		r := m.Get(bench, "RT-3")
		b.ReportMetric(float64(r.Miss[stats.LLCReplicaHit])/float64(r.Miss.L1Misses()),
			"replica-frac-"+bench)
	}
}

// BenchmarkHeadline reports the §4.1 headline deltas: RT-3's average energy
// and time reduction versus each baseline (paper: energy -16/-14/-13/-21 %,
// time -4/-9/-6/-13 % vs VR/ASR/R-NUCA/S-NUCA).
func BenchmarkHeadline(b *testing.B) {
	m := runMainMatrix(b)
	for _, baseline := range []string{"VR", "ASR", "R-NUCA", "S-NUCA"} {
		var esum, tsum float64
		for _, bench := range m.Benches {
			rt := m.Get(bench, "RT-3")
			bl := m.Get(bench, baseline)
			esum += 1 - rt.EnergyTotal()/bl.EnergyTotal()
			tsum += 1 - float64(rt.CompletionTime)/float64(bl.CompletionTime)
		}
		n := float64(len(m.Benches))
		b.ReportMetric(100*esum/n, "energy-cut-pct-vs-"+baseline)
		b.ReportMetric(100*tsum/n, "time-cut-pct-vs-"+baseline)
	}
}

// BenchmarkFig1RunLength regenerates the Figure-1 motivation data and
// reports BARNES's share of shared read-write accesses with run-length >=
// 10 (the paper reports over 90%).
func BenchmarkFig1RunLength(b *testing.B) {
	var hists map[string]*stats.RunLengthHist
	for i := 0; i < b.N; i++ {
		var err error
		_, hists, err = harness.Fig1RunLengths(benchBase("BARNES", "FLUIDANIM."))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hists["BARNES"].Share(mem.ClassSharedRW, stats.Run10plus),
		"barnes-rw-run10-share")
	lowReuse := hists["FLUIDANIM."].Share(mem.ClassPrivate, stats.Run1to2) +
		hists["FLUIDANIM."].Share(mem.ClassSharedRW, stats.Run1to2)
	b.ReportMetric(lowReuse, "fluidanimate-run12-share")
}

// BenchmarkFig9LimitedK regenerates the Figure-9 classifier sensitivity on
// its benchmark subset and reports the geomean energy per k (normalized to
// the Complete classifier).
func BenchmarkFig9LimitedK(b *testing.B) {
	base := benchBase("BARNES", "STREAMCLUS.", "DEDUP", "LU-NC")
	var vals map[string]map[int][2]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, vals, err = harness.Fig9LimitedK(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range harness.Fig9Ks {
		var es []float64
		for _, bench := range base.Benchmarks {
			es = append(es, vals[bench][k][0])
		}
		b.ReportMetric(stats.Geomean(es), "norm-energy-k"+itoa(k))
	}
}

// BenchmarkFig10ClusterSize regenerates the Figure-10 cluster-size study
// and reports the geomean completion time per cluster size (normalized to
// cluster size 1; the paper finds C-1 optimal).
func BenchmarkFig10ClusterSize(b *testing.B) {
	base := benchBase("BARNES", "STREAMCLUS.", "RAYTRACE", "FLUIDANIM.")
	var vals map[string]map[int][2]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, vals, err = harness.Fig10ClusterSize(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []int{1, 2, 4, 16} {
		var ts []float64
		for _, bench := range base.Benchmarks {
			if pair, ok := vals[bench][c]; ok {
				ts = append(ts, pair[1])
			}
		}
		if len(ts) > 0 {
			b.ReportMetric(stats.Geomean(ts), "norm-time-C"+itoa(c))
		}
	}
}

// BenchmarkReplacementPolicy regenerates the §4.2 ablation: the paper's
// modified-LRU against plain LRU under RT-3 (the paper reports wins on
// BLACKSCHOLES and FACESIM, ties elsewhere).
func BenchmarkReplacementPolicy(b *testing.B) {
	base := benchBase("BLACKSCH.", "FACESIM", "DEDUP")
	var vals map[string][2]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, vals, err = harness.ReplacementAblation(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	for bench, pair := range vals {
		b.ReportMetric(pair[0], "energy-mod-over-lru-"+bench)
	}
}

// BenchmarkLookupOracle regenerates the §2.3.2 ablation: always looking up
// the local slice against a perfect oracle (paper: <1% apart).
func BenchmarkLookupOracle(b *testing.B) {
	base := benchBase("BARNES", "DEDUP")
	var vals map[string][2]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, vals, err = harness.OracleAblation(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	for bench, pair := range vals {
		b.ReportMetric(pair[1], "time-lookup-over-oracle-"+bench)
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (accesses/sec) on
// one representative run — useful when sizing larger campaigns.
func BenchmarkEngineThroughput(b *testing.B) {
	var ops uint64
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Run(benchBase(), "BARNES",
			harness.Variant{Label: "RT-3", Scheme: lard.LocalityAware(3)})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "accesses/s")
}

// fig7Member times one Figure-7 member run (BARNES under RT-3 on the
// 16-core machine) through the public facade, with or without an
// observer wired.
func fig7Member(b *testing.B, ob obs.RunObserver) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := lard.Run("BARNES", lard.LocalityAware(3),
			lard.Options{Cores: 16, OpsScale: 0.5, Observer: ob}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7MemberUntraced is the baseline: no observer wired, the
// configuration every pre-observability run used.
func BenchmarkFig7MemberUntraced(b *testing.B) { fig7Member(b, nil) }

// BenchmarkFig7MemberTraced wires an observer that sums the phase times —
// the full per-run cost of the phase and epoch calls. Compare its ns/op
// against BenchmarkFig7MemberUntraced: the delta is the observability
// overhead, and the acceptance bar for the disabled path is < 2%. It also
// reports the coherence loop's share of the run, the quantity the trace
// endpoint's waterfall visualizes.
func BenchmarkFig7MemberTraced(b *testing.B) {
	var w watch
	fig7Member(b, &w)
	var total time.Duration
	for _, d := range w.phases {
		total += d
	}
	if total > 0 {
		b.ReportMetric(float64(w.phases["coherence_loop"])/float64(total), "coherence-loop-share")
	}
}

// BenchmarkFig7MemberTelemetry wires the epoch flight recorder as the
// observer. Compare its ns/op against BenchmarkFig7MemberUntraced:
// sampling happens only at the epoch cadence into preallocated rows, so
// the acceptance bar for the overhead is < 5% with bounded allocations
// (the recorder itself plus its fixed sample matrix). It also reports
// epochs recorded per run, pinning the decimation arithmetic to a
// visible number.
func BenchmarkFig7MemberTelemetry(b *testing.B) {
	var epochs float64
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		if _, err := lard.Run("BARNES", lard.LocalityAware(3),
			lard.Options{Cores: 16, OpsScale: 0.5, Observer: rec}); err != nil {
			b.Fatal(err)
		}
		epochs = float64(rec.Epochs())
	}
	b.ReportMetric(epochs, "epochs/run")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
