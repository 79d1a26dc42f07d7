package harness

import (
	"reflect"
	"strings"
	"testing"

	"lard"
	"lard/internal/resultstore"
)

// smallBase is a fast campaign configuration for tests.
func smallBase(benches ...string) Base {
	return Base{Cores: 16, OpsScale: 0.05, Benchmarks: benches}
}

func TestStandardVariants(t *testing.T) {
	vs := StandardVariants()
	want := []string{"S-NUCA", "R-NUCA", "VR", "ASR", "RT-1", "RT-3", "RT-8"}
	if len(vs) != len(want) {
		t.Fatalf("%d variants, want %d", len(vs), len(want))
	}
	for i, w := range want {
		if vs[i].Label != w {
			t.Errorf("variant %d = %q, want %q", i, vs[i].Label, w)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	_, err := Run(smallBase(), "NOPE", Variant{Label: "S-NUCA", Scheme: lard.SNUCA()})
	if err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestRunMatrixAndTables(t *testing.T) {
	base := smallBase("DEDUP", "BARNES")
	m, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("DEDUP", "RT-3") == nil || m.Get("BARNES", "VR") == nil {
		t.Fatal("matrix cells missing")
	}
	t6, avg := Fig6Energy(m)
	if !strings.Contains(t6, "BARNES") || !strings.Contains(t6, "AVERAGE") {
		t.Error("Figure 6 table incomplete")
	}
	if avg["S-NUCA"] != 1.0 {
		t.Errorf("S-NUCA normalizes to 1.0, got %v", avg["S-NUCA"])
	}
	t7, _ := Fig7Time(m)
	if !strings.Contains(t7, "completion time") {
		t.Error("Figure 7 table incomplete")
	}
	t8 := Fig8MissTypes(m)
	if !strings.Contains(t8, "Figure 8") {
		t.Error("Figure 8 table incomplete")
	}
	hl := Headline(m)
	for _, b := range []string{"VR", "ASR", "R-NUCA", "S-NUCA"} {
		if !strings.Contains(hl, b) {
			t.Errorf("headline missing baseline %s", b)
		}
	}
	if eb := EnergyBreakdownTable(m, "BARNES"); !strings.Contains(eb, "DRAM") {
		t.Error("energy breakdown missing components")
	}
	if tb := TimeBreakdownTable(m, "BARNES"); !strings.Contains(tb, "Synchronization") {
		t.Error("time breakdown missing components")
	}
}

// TestRunMatrixStoreReuse pins the campaign-caching contract: a matrix run
// twice against the same store performs zero simulations the second time
// and reproduces identical results.
func TestRunMatrixStoreReuse(t *testing.T) {
	st, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := smallBase("DEDUP", "BARNES")
	base.Store = st
	// StandardVariants includes AutoASR, so the ASR column alone is five
	// distinct simulations — all of which must cache too.
	m1, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	computes := st.Stats().Computes
	if computes == 0 {
		t.Fatal("first pass must simulate")
	}

	m2, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Computes; got != computes {
		t.Fatalf("second pass ran %d simulations, want 0", got-computes)
	}
	if !reflect.DeepEqual(m1.Results, m2.Results) {
		t.Fatal("cached pass must reproduce identical results")
	}

	// A fresh process over the same store directory also reuses everything.
	st2, err := resultstore.New(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	base.Store = st2
	m3, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Computes; got != 0 {
		t.Fatalf("disk-backed pass ran %d simulations, want 0", got)
	}
	if !reflect.DeepEqual(m1.Results, m3.Results) {
		t.Fatal("disk round trip must reproduce identical results")
	}
}

// TestRunMatrixStoreMatchesDirect verifies the store layer is transparent:
// cached campaigns produce exactly what uncached ones do.
func TestRunMatrixStoreMatchesDirect(t *testing.T) {
	base := smallBase("BARNES")
	direct, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := resultstore.New("")
	base.Store = st
	stored, err := RunMatrix(base, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Results, stored.Results) {
		t.Fatal("store-backed matrix must match the direct matrix")
	}
}

// TestAutoASRValidatesConfig is a regression test: the AutoASR path must
// reject a variant it cannot run as asked rather than silently simulating
// something else. Auto-tuning sweeps ASR's replication level, so an
// AutoASR variant over any other scheme is an error. (An invalid machine
// on the tuned path is TestCoreCountValidation's.)
func TestAutoASRValidatesConfig(t *testing.T) {
	v := Variant{Label: "ASR", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClusterSize: 5}, AutoASR: true}
	if _, err := Run(smallBase("DEDUP"), "DEDUP", v); err == nil || !strings.Contains(err.Error(), "only an ASR scheme") {
		t.Fatalf("AutoASR over an RT scheme must be rejected, got %v", err)
	}
}

// TestAutoASRMixRejected: AutoASR applies to a whole campaign, so a matrix
// holding an auto-tuned and a fixed-level ASR variant cannot be run as
// asked and must be rejected before anything simulates.
func TestAutoASRMixRejected(t *testing.T) {
	_, err := RunMatrix(smallBase("DEDUP"), []Variant{
		{Label: "ASR", Scheme: lard.ASR(0.5), AutoASR: true},
		{Label: "ASR-0.25", Scheme: lard.ASR(0.25)},
	})
	if err == nil || !strings.Contains(err.Error(), "cannot mix") {
		t.Fatalf("mixed auto-tuned and fixed ASR variants must be rejected, got %v", err)
	}
}

// TestVariantRTZeroRejected: the facade's RT-0 guard holds at the harness
// layer too: a locality-aware variant without an explicit threshold must
// error, never silently simulate the config default under the variant's
// label.
func TestVariantRTZeroRejected(t *testing.T) {
	v := Variant{Label: "RT-1", Scheme: lard.Scheme{Kind: "RT", ClassifierK: 3, ClusterSize: 1}}
	if _, err := Run(smallBase("DEDUP"), "DEDUP", v); err == nil {
		t.Fatal("locality-aware variant without RT must error")
	}
}

func TestAutoASRPicksALevel(t *testing.T) {
	res, err := Run(smallBase(), "DEDUP", Variant{Label: "ASR", Scheme: lard.ASR(0.5), AutoASR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "ASR" {
		t.Fatalf("label = %q", res.Scheme)
	}
}

// TestAutoASRTracksRuns is a regression test: the AutoASR path used to drop
// TrackRuns from the per-level options, so an AutoASR variant could never
// collect the Figure-1 histogram.
func TestAutoASRTracksRuns(t *testing.T) {
	base := smallBase()
	base.TrackRuns = true
	res, err := Run(base, "DEDUP", Variant{Label: "ASR", Scheme: lard.ASR(0.5), AutoASR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == nil || res.Runs.Total() == 0 {
		t.Fatal("AutoASR with TrackRuns must collect the run-length histogram")
	}
}

// TestCoreCountValidation is a regression test: Base.config() used to map
// every core count other than 16 to the 64-core machine, so Cores: 4 (or a
// typo like 46) silently simulated 64 cores. The supported presets work and
// report the machine they claim; anything else errors.
func TestCoreCountValidation(t *testing.T) {
	for _, cores := range []int{0, 4, 16, 64} {
		base := Base{Cores: cores, OpsScale: 0.02, Benchmarks: []string{"DEDUP"}}
		res, err := Run(base, "DEDUP", Variant{Label: "S-NUCA", Scheme: lard.SNUCA()})
		if err != nil {
			t.Fatalf("Cores=%d: %v", cores, err)
		}
		want := cores
		if want == 0 {
			want = 64
		}
		if res.Cores != want {
			t.Fatalf("Cores=%d simulated a %d-core machine", cores, res.Cores)
		}
	}
	for _, cores := range []int{46, 7, -1, 128} {
		base := Base{Cores: cores, OpsScale: 0.02, Benchmarks: []string{"DEDUP"}}
		if _, err := Run(base, "DEDUP", Variant{Label: "S-NUCA", Scheme: lard.SNUCA()}); err == nil {
			t.Fatalf("Cores=%d must error, not silently simulate 64 cores", cores)
		}
		// The AutoASR path validates identically.
		if _, err := Run(base, "DEDUP", Variant{Label: "ASR", Scheme: lard.ASR(0.5), AutoASR: true}); err == nil {
			t.Fatalf("Cores=%d must error on the AutoASR path too", cores)
		}
		if _, _, err := Fig9LimitedK(base); err == nil {
			t.Fatalf("Cores=%d must error in sensitivity studies too", cores)
		}
		if _, _, err := Fig10ClusterSize(base); err == nil {
			t.Fatalf("Cores=%d must error in Figure 10 (not panic on an empty sweep)", cores)
		}
	}
}

func TestFig1RunLengths(t *testing.T) {
	table, hists, err := Fig1RunLengths(smallBase("BARNES"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "BARNES") {
		t.Error("Figure 1 table missing benchmark")
	}
	if hists["BARNES"] == nil || hists["BARNES"].Total() == 0 {
		t.Error("Figure 1 histogram empty")
	}
}

// TestSensitivityAtFourCores pins the 4-core preset against the sensitivity
// studies: Figure 10 must sweep only cluster sizes that tile the machine
// ({1,2,4}), and Figure 9 must collapse every k >= cores into ONE Complete
// column instead of simulating duplicates under misleading k-labels.
func TestSensitivityAtFourCores(t *testing.T) {
	base := Base{Cores: 4, OpsScale: 0.02, Benchmarks: []string{"DEDUP"}}

	table10, vals10, err := Fig10ClusterSize(base)
	if err != nil {
		t.Fatalf("Figure 10 at 4 cores: %v", err)
	}
	if strings.Contains(table10, "C-16") || !strings.Contains(table10, "C-4") {
		t.Errorf("4-core cluster sweep wrong:\n%s", table10)
	}
	if _, ok := vals10["DEDUP"][16]; ok {
		t.Error("cluster 16 cannot tile a 4-core machine")
	}

	table9, vals9, err := Fig9LimitedK(base)
	if err != nil {
		t.Fatalf("Figure 9 at 4 cores: %v", err)
	}
	// k in {1,3} are real Limited-k columns; 5, 7 and 64 all collapse into
	// the single Complete column (keyed 64).
	if strings.Contains(table9, "k=5") || strings.Contains(table9, "k=7") {
		t.Errorf("clamped k must not render as its own column:\n%s", table9)
	}
	if !strings.Contains(table9, "Complete") {
		t.Errorf("Complete column missing:\n%s", table9)
	}
	if pair := vals9["DEDUP"][64]; pair[0] != 1.0 || pair[1] != 1.0 {
		t.Errorf("Complete column must normalize to 1.0, got %v", pair)
	}
}

func TestFig9Structure(t *testing.T) {
	base := smallBase("DEDUP")
	table, vals, err := Fig9LimitedK(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "k=1") || !strings.Contains(table, "GEOMEAN") {
		t.Error("Figure 9 table incomplete")
	}
	pair, ok := vals["DEDUP"][64]
	if !ok {
		t.Fatal("Complete column missing")
	}
	if pair[0] != 1.0 || pair[1] != 1.0 {
		t.Errorf("normalization base must be 1.0, got %v", pair)
	}
}

func TestFig10Structure(t *testing.T) {
	base := smallBase("DEDUP")
	table, vals, err := Fig10ClusterSize(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "C-1") {
		t.Error("Figure 10 table incomplete")
	}
	if pair := vals["DEDUP"][1]; pair[0] != 1.0 {
		t.Errorf("C-1 normalizes to 1.0, got %v", pair)
	}
}

func TestReplacementAblation(t *testing.T) {
	table, vals, err := ReplacementAblation(smallBase("DEDUP"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "mod") {
		t.Error("ablation table incomplete")
	}
	if _, ok := vals["DEDUP"]; !ok {
		t.Fatal("ablation values missing")
	}
}

func TestOracleAblation(t *testing.T) {
	_, vals, err := OracleAblation(smallBase("DEDUP"))
	if err != nil {
		t.Fatal(err)
	}
	pair := vals["DEDUP"]
	// The oracle removes failed-lookup cost but also perturbs contention
	// interleaving; the paper's claim is that the two are within 1%, and at
	// test scale they must at least be close.
	for i, v := range pair {
		if v < 0.9 || v > 1.1 {
			t.Errorf("lookup/oracle ratio[%d] = %v, want near 1", i, v)
		}
	}
}
