// Command lard-trend diffs the benchmark artifacts CI uploads per commit
// (BENCH_<sha>.json, the `go test -json -bench` event stream) and fails
// when performance regresses beyond a tolerance — the trend guard the
// ROADMAP asked for over the bench job's run history.
//
// Usage:
//
//	lard-trend [-tolerance 10] [-alloc-tolerance 10] OLD.json NEW.json
//	lard-trend [-tolerance 10] [-baseline FILE] DIR
//
// With two file arguments the first is the baseline. With a directory,
// the two most recently modified BENCH_*.json files are compared (older =
// baseline); when the directory holds only ONE artifact — the first run
// of a fresh CI history — -baseline names the fallback to diff against
// (the repo seeds bench/BENCH_baseline.json for exactly this), so the
// guard works from the very first commit instead of silently passing. Plain `go test -bench` text output is accepted too: any line
// that is not a test2json event is scanned directly.
//
// A benchmark that repeats (-count > 1) is compared by its per-metric
// median over every sample, so one noisy iteration cannot decide the
// verdict. Output is one row per benchmark with the median ns/op of each
// side, its min..max spread over the samples, and the delta, plus — when both
// artifacts carry -benchmem columns — an allocation table with the B/op
// and allocs/op deltas. Timing regressions beyond -tolerance percent and
// allocation regressions beyond -alloc-tolerance percent both exit 1, so
// the tool drops straight into CI:
//
//	go run ./cmd/lard-trend -tolerance 15 BENCH_old.json BENCH_new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a Go benchmark result line: name, iterations, ns/op.
// The -N GOMAXPROCS suffix is captured separately and stripped, so runs
// from machines with different core counts still line up.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s-]+(?:/[^\s]+)?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:[eE][+-]?[0-9]+)?) ns/op`)

// event is the subset of a test2json record the parser needs.
type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// procsSuffix is the trailing -GOMAXPROCS a benchmark name carries.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// timingLine matches the timing half of a benchmark result when test2json
// has split the name into the event's Test field: iterations, then ns/op.
var timingLine = regexp.MustCompile(`^\d+\s+([0-9.]+(?:[eE][+-]?[0-9]+)?) ns/op`)

// benchName matches a benchmark name alone on its line. Under -count > 1
// test2json emits the repeats of a group's last sub-benchmark without a
// Test field, the name in one event and the timing in the next; the name
// is held until that timing line arrives.
var benchName = regexp.MustCompile(`^Benchmark\S+$`)

// bytesCol and allocsCol match the -benchmem columns, which trail the
// ns/op value (custom b.ReportMetric units may sit between them).
var (
	bytesCol  = regexp.MustCompile(`([0-9.]+(?:[eE][+-]?[0-9]+)?) B/op`)
	allocsCol = regexp.MustCompile(`([0-9.]+(?:[eE][+-]?[0-9]+)?) allocs/op`)
)

// metrics is one benchmark's parsed result: the median of its samples,
// plus the spread of the ns/op samples.
type metrics struct {
	ns            float64
	nsMin, nsMax  float64
	bytes, allocs float64
	hasMem        bool // the rows carried -benchmem columns
}

// samples collects every result row one benchmark name produced.
type samples struct {
	ns, bytes, allocs []float64
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count. It sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseBench extracts {benchmark name -> metrics} from r, which may be a
// `go test -json` event stream, plain `go test -bench` text, or a mix.
// test2json splits a result across events — the name rides in the Test
// field, or in the preceding output event, while the Output holds only
// "  50\t 15236 ns/op" — so both the combined plain-text shape and the
// split JSON shapes are recognized. A name that repeats (-count > 1) keeps
// every sample; each metric reports the median of its samples.
func parseBench(r io.Reader) (map[string]metrics, error) {
	rows := make(map[string]*samples)
	record := func(name, ns, line string) {
		v, err := strconv.ParseFloat(ns, 64)
		if err != nil {
			return
		}
		name = procsSuffix.ReplaceAllString(name, "")
		s := rows[name]
		if s == nil {
			s = &samples{}
			rows[name] = s
		}
		s.ns = append(s.ns, v)
		bm := bytesCol.FindStringSubmatch(line)
		am := allocsCol.FindStringSubmatch(line)
		if bm != nil && am != nil {
			b, errB := strconv.ParseFloat(bm[1], 64)
			a, errA := strconv.ParseFloat(am[1], 64)
			if errB == nil && errA == nil {
				s.bytes = append(s.bytes, b)
				s.allocs = append(s.allocs, a)
			}
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pending := "" // a bare benchmark name awaiting its timing event
	for sc.Scan() {
		line := sc.Text()
		test := ""
		if strings.HasPrefix(line, "{") {
			var e event
			if err := json.Unmarshal([]byte(line), &e); err == nil {
				if e.Action != "output" {
					continue
				}
				line, test = strings.TrimSuffix(e.Output, "\n"), e.Test
			}
		}
		line = strings.TrimSpace(line)
		if m := benchLine.FindStringSubmatch(line); m != nil {
			record(m[1], m[2], line)
		} else if m := timingLine.FindStringSubmatch(line); m != nil {
			name := test
			if name == "" {
				name = pending
			}
			if strings.HasPrefix(name, "Benchmark") {
				record(name, m[1], line)
			}
		}
		pending = ""
		if benchName.MatchString(line) {
			pending = line
		}
	}
	out := make(map[string]metrics, len(rows))
	for name, s := range rows {
		m := metrics{ns: median(s.ns)}
		m.nsMin, m.nsMax = s.ns[0], s.ns[len(s.ns)-1] // median sorted them
		if len(s.bytes) > 0 {
			m.bytes, m.allocs, m.hasMem = median(s.bytes), median(s.allocs), true
		}
		out[name] = m
	}
	return out, sc.Err()
}

// parseBenchFile parses one artifact.
func parseBenchFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// delta is one benchmark's old/new comparison.
type delta struct {
	name     string
	old, new metrics
	pct      float64 // ns/op: (new-old)/old * 100; >0 = slower
}

// growthPct is the percent increase of new over old. A baseline of zero is
// special-cased: staying at zero is 0%, any growth from zero is +Inf (an
// alloc-free benchmark that starts allocating must trip any tolerance).
func growthPct(old, new float64) float64 {
	if old > 0 {
		return (new - old) / old * 100
	}
	if new > 0 {
		return math.Inf(1)
	}
	return 0
}

// diff joins two parses. Benchmarks present on only one side are returned
// separately — new benchmarks are not regressions, vanished ones are worth
// a warning but not a failure.
func diff(old, new map[string]metrics) (both []delta, added, removed []string) {
	for name, nv := range new {
		ov, ok := old[name]
		if !ok {
			added = append(added, name)
			continue
		}
		both = append(both, delta{name: name, old: ov, new: nv, pct: growthPct(ov.ns, nv.ns)})
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Slice(both, func(i, j int) bool { return both[i].pct > both[j].pct })
	sort.Strings(added)
	sort.Strings(removed)
	return both, added, removed
}

// latestTwo returns the two most recently modified BENCH_*.json files in
// dir: (baseline, candidate).
func latestTwo(dir string) (string, string, error) {
	return latestTwoFallback(dir, "")
}

// latestTwoFallback is latestTwo with a seed baseline: a directory with a
// single artifact diffs it against the fallback file instead of erroring.
func latestTwoFallback(dir, fallback string) (string, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	if len(matches) == 1 && fallback != "" {
		return fallback, matches[0], nil
	}
	if len(matches) < 2 {
		return "", "", fmt.Errorf("%s holds %d BENCH_*.json artifacts, need at least 2 (or -baseline)", dir, len(matches))
	}
	sort.Slice(matches, func(i, j int) bool {
		fi, erri := os.Stat(matches[i])
		fj, errj := os.Stat(matches[j])
		if erri != nil || errj != nil {
			return matches[i] < matches[j]
		}
		return fi.ModTime().Before(fj.ModTime())
	})
	return matches[len(matches)-2], matches[len(matches)-1], nil
}

// spread renders the min..max range of a benchmark's ns/op samples.
func spread(m metrics) string {
	return fmt.Sprintf("%.0f..%.0f", m.nsMin, m.nsMax)
}

// run is main minus os.Exit, for tests: it renders the comparison to w
// and reports whether any timing regression exceeded tolerancePct or any
// allocation regression (B/op or allocs/op, where both artifacts carry
// -benchmem columns) exceeded allocTolerancePct.
func run(w io.Writer, oldPath, newPath string, tolerancePct, allocTolerancePct float64) (regressed bool, err error) {
	oldBench, err := parseBenchFile(oldPath)
	if err != nil {
		return false, err
	}
	newBench, err := parseBenchFile(newPath)
	if err != nil {
		return false, err
	}
	if len(oldBench) == 0 {
		return false, fmt.Errorf("%s contains no benchmark results", oldPath)
	}
	if len(newBench) == 0 {
		return false, fmt.Errorf("%s contains no benchmark results", newPath)
	}

	both, added, removed := diff(oldBench, newBench)
	fmt.Fprintf(w, "baseline  %s\ncandidate %s\n\n", oldPath, newPath)
	fmt.Fprintf(w, "%-44s %14s %14s %9s %23s %23s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old min..max", "new min..max")
	timingRegressed, allocRegressed := false, false
	for _, d := range both {
		flag := ""
		if d.pct > tolerancePct {
			flag = "  REGRESSION"
			timingRegressed = true
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+8.1f%% %23s %23s%s\n", d.name, d.old.ns, d.new.ns, d.pct, spread(d.old), spread(d.new), flag)
	}
	for _, name := range added {
		fmt.Fprintf(w, "%-44s %14s %14.0f %9s %23s %23s\n", name, "-", newBench[name].ns, "new", "-", spread(newBench[name]))
	}
	for _, name := range removed {
		fmt.Fprintf(w, "%-44s %14.0f %14s %9s %23s %23s\n", name, oldBench[name].ns, "-", "gone", spread(oldBench[name]), "-")
	}

	// Allocation table for pairs where both sides carried -benchmem rows.
	var mem []delta
	for _, d := range both {
		if d.old.hasMem && d.new.hasMem {
			mem = append(mem, d)
		}
	}
	if len(mem) > 0 {
		sort.Slice(mem, func(i, j int) bool {
			return growthPct(mem[i].old.allocs, mem[i].new.allocs) > growthPct(mem[j].old.allocs, mem[j].new.allocs)
		})
		fmt.Fprintf(w, "\n%-44s %12s %12s %9s %14s %14s %9s\n",
			"benchmark", "old allocs", "new allocs", "delta", "old B/op", "new B/op", "delta")
		for _, d := range mem {
			aPct := growthPct(d.old.allocs, d.new.allocs)
			bPct := growthPct(d.old.bytes, d.new.bytes)
			flag := ""
			if aPct > allocTolerancePct || bPct > allocTolerancePct {
				flag = "  ALLOC REGRESSION"
				allocRegressed = true
			}
			fmt.Fprintf(w, "%-44s %12.0f %12.0f %+8.1f%% %14.0f %14.0f %+8.1f%%%s\n",
				d.name, d.old.allocs, d.new.allocs, aPct, d.old.bytes, d.new.bytes, bPct, flag)
		}
	}

	if timingRegressed {
		fmt.Fprintf(w, "\nFAIL: at least one benchmark slowed by more than %.1f%%\n", tolerancePct)
	}
	if allocRegressed {
		fmt.Fprintf(w, "\nFAIL: at least one benchmark's allocations grew by more than %.1f%%\n", allocTolerancePct)
	}
	return timingRegressed || allocRegressed, nil
}

func main() {
	tolerance := flag.Float64("tolerance", 10, "max allowed slowdown in percent before exiting nonzero")
	allocTolerance := flag.Float64("alloc-tolerance", 10, "max allowed allocs/op or B/op growth in percent before exiting nonzero")
	baseline := flag.String("baseline", "", "seed baseline artifact, used in directory mode when only one BENCH_*.json exists")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 1:
		info, err := os.Stat(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if !info.IsDir() {
			fatal(fmt.Errorf("single argument must be a directory of BENCH_*.json artifacts"))
		}
		oldPath, newPath, err = latestTwoFallback(flag.Arg(0), *baseline)
		fatal(err)
		if oldPath == *baseline && *baseline != "" {
			fmt.Fprintf(os.Stderr, "lard-trend: single artifact in %s, diffing against seed baseline %s\n", flag.Arg(0), *baseline)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fatal(fmt.Errorf("usage: lard-trend [-tolerance PCT] [-alloc-tolerance PCT] OLD.json NEW.json | DIR"))
	}

	regressed, err := run(os.Stdout, oldPath, newPath, *tolerance, *allocTolerance)
	fatal(err)
	if regressed {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard-trend:", err)
		os.Exit(1)
	}
}
