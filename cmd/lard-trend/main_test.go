package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// jsonArtifact renders benchmark results the way `go test -json -bench`
// does: output events interleaved with noise.
func jsonArtifact(lines ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"lard"}` + "\n")
	for _, l := range lines {
		b.WriteString(`{"Action":"output","Package":"lard","Output":"` + l + `\n"}` + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"lard"}` + "\n")
	return b.String()
}

func TestParseBench(t *testing.T) {
	art := jsonArtifact(
		"goos: linux",
		"BenchmarkShardedGet",
		"BenchmarkShardedGet-8   \\t    1000\\t      1250 ns/op\\t 655.46 MB/s",
		"BenchmarkReplicaPromotion-8 \\t 2000\\t 750.5 ns/op",
		"BenchmarkRunMatrix/BARNES-8 \\t 1\\t 4.5e+06 ns/op",
		"PASS",
	)
	got, err := parseBench(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkShardedGet":       1250,
		"BenchmarkReplicaPromotion": 750.5,
		"BenchmarkRunMatrix/BARNES": 4.5e6,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k].ns != v {
			t.Errorf("%s = %v, want %v", k, got[k].ns, v)
		}
		if got[k].hasMem {
			t.Errorf("%s has mem columns, artifact carried none", k)
		}
	}

	// Plain text (non-JSON) artifacts parse too.
	plain := "BenchmarkShardedGet-16    500    2000 ns/op\n"
	got, err = parseBench(strings.NewReader(plain))
	if err != nil || got["BenchmarkShardedGet"].ns != 2000 {
		t.Fatalf("plain parse = %v (%v)", got, err)
	}

	// The real test2json shape splits the name into the Test field and
	// leaves only "  N\t ns/op" in the Output.
	split := strings.Join([]string{
		`{"Action":"output","Test":"BenchmarkShardedGet","Output":"=== RUN   BenchmarkShardedGet\n"}`,
		`{"Action":"output","Test":"BenchmarkShardedGet","Output":"BenchmarkShardedGet \t"}`,
		`{"Action":"output","Test":"BenchmarkShardedGet","Output":"      50\t     15236 ns/op\t 537.68 MB/s\n"}`,
		`{"Action":"output","Output":"PASS\n"}`,
	}, "\n")
	got, err = parseBench(strings.NewReader(split))
	if err != nil || got["BenchmarkShardedGet"].ns != 15236 {
		t.Fatalf("split-event parse = %v (%v)", got, err)
	}

	// Under -count > 1 test2json emits the repeats of a group's last
	// sub-benchmark with no Test field: the name in one event, the timing
	// in the next. Every repeat is a sample.
	untagged := strings.Join([]string{
		`{"Action":"output","Test":"BenchmarkLookup/miss","Output":"BenchmarkLookup/miss-2    \t"}`,
		`{"Action":"output","Test":"BenchmarkLookup/miss","Output":"    1000\t       183.4 ns/op\n"}`,
		`{"Action":"output","Output":"BenchmarkLookup/miss-2    \t"}`,
		`{"Action":"output","Output":"    1000\t        98.71 ns/op\n"}`,
		`{"Action":"output","Output":"BenchmarkLookup/miss-2    \t"}`,
		`{"Action":"output","Output":"    1000\t       103.4 ns/op\n"}`,
		`{"Action":"output","Output":"    1000\t       7 ns/op\n"}`,
	}, "\n")
	got, err = parseBench(strings.NewReader(untagged))
	if m := got["BenchmarkLookup/miss"]; err != nil || m.ns != 103.4 || m.nsMin != 98.71 || m.nsMax != 183.4 {
		t.Fatalf("untagged repeats = %+v (%v), want median 103.4 over 98.71..183.4", m, err)
	}

	// -count=3 with an outlier last sample: every sample is kept and each
	// metric is the median, not the last value seen.
	repeated := jsonArtifact(
		"BenchmarkFig7Member-8 \\t 3\\t 110 ns/op\\t 2000 B/op\\t 20 allocs/op",
		"BenchmarkFig7Member-8 \\t 3\\t 100 ns/op\\t 1000 B/op\\t 10 allocs/op",
		"BenchmarkFig7Member-8 \\t 3\\t 5000 ns/op\\t 9000 B/op\\t 90 allocs/op",
	)
	got, err = parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkFig7Member"]; m.ns != 110 || m.bytes != 2000 || m.allocs != 20 || !m.hasMem {
		t.Fatalf("repeated samples = %+v, want medians 110 ns/op, 2000 B/op, 20 allocs/op", m)
	}
	// The ns/op spread spans every sample, outlier included.
	if m := got["BenchmarkFig7Member"]; m.nsMin != 100 || m.nsMax != 5000 {
		t.Fatalf("repeated samples spread = %v..%v, want 100..5000", m.nsMin, m.nsMax)
	}
}

// TestRunPrintsSpread: each row shows the min..max ns/op spread of both
// sides next to their medians; a single sample spans one value.
func TestRunPrintsSpread(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "BENCH_old.json", jsonArtifact(
		"BenchmarkSched-8 \\t 1000 \\t 90 ns/op",
		"BenchmarkSched-8 \\t 1000 \\t 100 ns/op",
		"BenchmarkSched-8 \\t 1000 \\t 130 ns/op",
	), 2*time.Hour)
	newP := write(t, dir, "BENCH_new.json", jsonArtifact(
		"BenchmarkSched-8 \\t 1000 \\t 95 ns/op",
	), time.Hour)
	var out strings.Builder
	regressed, err := run(&out, oldP, newP, 10, 10)
	if err != nil || regressed {
		t.Fatalf("run = %v, %v; want a pass:\n%s", regressed, err, out.String())
	}
	var row string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "BenchmarkSched ") {
			row = l
		}
	}
	if f := strings.Fields(row); len(f) != 6 || f[1] != "100" || f[2] != "95" || f[4] != "90..130" || f[5] != "95..95" {
		t.Fatalf("row %q, want medians 100 and 95 with spreads 90..130 and 95..95", row)
	}
}

// TestParseBenchMem: -benchmem columns are captured, including when a
// custom b.ReportMetric unit sits between ns/op and B/op.
func TestParseBenchMem(t *testing.T) {
	art := jsonArtifact(
		"BenchmarkCoherenceAccess-8 \\t 200000\\t 286.0 ns/op\\t 0 B/op\\t 0 allocs/op",
		"BenchmarkEngineThroughput-8 \\t 3\\t 1.55e+08 ns/op\\t 3092160 accesses/s\\t 2121786 B/op\\t 10747 allocs/op",
	)
	got, err := parseBench(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	ca := got["BenchmarkCoherenceAccess"]
	if !ca.hasMem || ca.allocs != 0 || ca.bytes != 0 {
		t.Fatalf("BenchmarkCoherenceAccess = %+v, want 0 B/op 0 allocs/op", ca)
	}
	et := got["BenchmarkEngineThroughput"]
	if !et.hasMem || et.allocs != 10747 || et.bytes != 2121786 || et.ns != 1.55e8 {
		t.Fatalf("BenchmarkEngineThroughput = %+v", et)
	}
}

// TestAllocRegression: allocs/op growth beyond -alloc-tolerance fails even
// when timing is flat, and growth from a zero baseline always fails.
func TestAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "BENCH_old.json", jsonArtifact(
		"BenchmarkCoherenceAccess-8 \\t 1000 \\t 300 ns/op\\t 0 B/op\\t 0 allocs/op",
		"BenchmarkEngineThroughput-8 \\t 10 \\t 1000 ns/op\\t 1000 B/op\\t 100 allocs/op",
	), 2*time.Hour)

	// Flat timing, +50% allocations: the alloc gate alone must fail.
	newP := write(t, dir, "BENCH_new.json", jsonArtifact(
		"BenchmarkCoherenceAccess-8 \\t 1000 \\t 300 ns/op\\t 0 B/op\\t 0 allocs/op",
		"BenchmarkEngineThroughput-8 \\t 10 \\t 1000 ns/op\\t 1500 B/op\\t 150 allocs/op",
	), time.Hour)
	var out strings.Builder
	regressed, err := run(&out, oldP, newP, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "ALLOC REGRESSION") {
		t.Fatalf("+50%% allocs at tolerance 10%% must regress:\n%s", out.String())
	}
	// A generous alloc tolerance passes the same pair.
	out.Reset()
	if regressed, err = run(&out, oldP, newP, 10, 60); err != nil || regressed {
		t.Fatalf("alloc tolerance 60%% must pass (%v):\n%s", err, out.String())
	}

	// An alloc-free benchmark that starts allocating trips any tolerance.
	zeroP := write(t, dir, "BENCH_zero.json", jsonArtifact(
		"BenchmarkCoherenceAccess-8 \\t 1000 \\t 300 ns/op\\t 16 B/op\\t 1 allocs/op",
		"BenchmarkEngineThroughput-8 \\t 10 \\t 1000 ns/op\\t 1000 B/op\\t 100 allocs/op",
	), 0)
	out.Reset()
	if regressed, err = run(&out, oldP, zeroP, 10, 1e9); err != nil || !regressed {
		t.Fatalf("0 -> 1 allocs/op must regress at any tolerance (%v):\n%s", err, out.String())
	}

	// Artifacts without -benchmem columns skip the alloc gate entirely.
	bareOld := write(t, dir, "BENCH_bare1.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1000 ns/op",
	), 2*time.Hour)
	bareNew := write(t, dir, "BENCH_bare2.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1001 ns/op",
	), time.Hour)
	out.Reset()
	if regressed, err = run(&out, bareOld, bareNew, 10, 0); err != nil || regressed {
		t.Fatalf("artifacts without mem columns must not trip the alloc gate (%v):\n%s", err, out.String())
	}
}

// write writes an artifact file with a controlled mtime ordering.
func write(t *testing.T, dir, name, content string, age time.Duration) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-age)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "BENCH_aaa.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1000 ns/op",
		"BenchmarkReplicaPromotion-8 \\t 1000 \\t 500 ns/op",
	), 2*time.Hour)
	newP := write(t, dir, "BENCH_bbb.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1300 ns/op", // +30%
		"BenchmarkReplicaPromotion-8 \\t 1000 \\t 490 ns/op",
		"BenchmarkBrandNew-8 \\t 1000 \\t 1 ns/op",
	), time.Hour)

	var out strings.Builder
	regressed, err := run(&out, oldP, newP, 10, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("a +30%% slowdown must regress at tolerance 10%%:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("output must flag the regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Fatalf("output must mention the new benchmark:\n%s", out.String())
	}

	// The same pair passes at a generous tolerance.
	out.Reset()
	regressed, err = run(&out, oldP, newP, 50, 1e9)
	if err != nil || regressed {
		t.Fatalf("tolerance 50%% must pass (%v):\n%s", err, out.String())
	}

	// Directory mode picks the two newest artifacts in mtime order.
	o, n, err := latestTwo(dir)
	if err != nil || o != oldP || n != newP {
		t.Fatalf("latestTwo = %s, %s (%v)", o, n, err)
	}
	// A third, newer artifact shifts the window.
	third := write(t, dir, "BENCH_ccc.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1100 ns/op",
	), 0)
	o, n, err = latestTwo(dir)
	if err != nil || o != newP || n != third {
		t.Fatalf("latestTwo after third = %s, %s (%v)", o, n, err)
	}

	// Artifacts without benchmarks are an error, not a silent pass.
	empty := write(t, dir, "BENCH_empty.json", jsonArtifact("PASS"), 0)
	if _, err := run(&out, empty, newP, 10, 10); err == nil {
		t.Fatal("empty baseline must error")
	}
}

// TestBaselineFallback: a directory with a single artifact (the first CI
// run of a fresh history) diffs against the seed baseline file instead of
// erroring — and still errors when no fallback is named.
func TestBaselineFallback(t *testing.T) {
	seedDir := t.TempDir()
	seed := write(t, seedDir, "BENCH_baseline.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1000 ns/op",
	), 24*time.Hour)

	dir := t.TempDir()
	only := write(t, dir, "BENCH_abc.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1050 ns/op",
	), time.Hour)

	if _, _, err := latestTwo(dir); err == nil {
		t.Fatal("one artifact and no fallback must error")
	}
	o, n, err := latestTwoFallback(dir, seed)
	if err != nil || o != seed || n != only {
		t.Fatalf("fallback = %s, %s (%v)", o, n, err)
	}
	var out strings.Builder
	regressed, err := run(&out, o, n, 10, 1e9)
	if err != nil || regressed {
		t.Fatalf("+5%% within tolerance 10%% must pass (%v):\n%s", err, out.String())
	}
	// Two artifacts in the directory: the fallback is ignored.
	second := write(t, dir, "BENCH_def.json", jsonArtifact(
		"BenchmarkShardedGet-8 \\t 1000 \\t 1060 ns/op",
	), 0)
	o, n, err = latestTwoFallback(dir, seed)
	if err != nil || o != only || n != second {
		t.Fatalf("two artifacts must ignore the fallback: %s, %s (%v)", o, n, err)
	}
}
