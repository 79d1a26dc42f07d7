package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// compareMain implements `lard-perf compare PARENT.json... -- CHANGE.json...`:
// result sets of the parent commit and of the change, run in alternating
// order and paired by position. For every workload and BENCHMARK.json
// metric it prints each side's median and quartiles, the share of pairs
// the change won, and a verdict. It exits 1 when a metric got worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lard-perf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: lard-perf compare [-bench BENCHMARK.json] PARENT.json... -- CHANGE.json...")
		return 2
	}
	spec, err := loadBenchSpec(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "lard-perf compare:", err)
		return 2
	}
	parents, err := loadSets(rest[:sep])
	if err == nil {
		var changes []Set
		if changes, err = loadSets(rest[sep+1:]); err == nil {
			return printComparison(stdout, stderr, spec, parents, changes)
		}
	}
	fmt.Fprintln(stderr, "lard-perf compare:", err)
	return 2
}

func loadSets(paths []string) ([]Set, error) {
	sets := make([]Set, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return sets, nil
}

// comparison is one workload × metric row.
type comparison struct {
	metric metricSpec
	parent []float64
	change []float64
}

// verdict applies the benchmark's acceptance rules. A gain needs at least
// minPairs pairs, the change winning nine tenths of them (ties count for
// neither), and medians further apart than the parent's interquartile
// spread. Otherwise a metric with a bound is "no worse" when the change's
// median is within the bound of the parent's, "worse" past it, and
// "unresolved" when the parent's own spread exceeds the bound — unless
// every change run beats every parent run.
func (c comparison) verdict() (string, int) {
	lower := c.metric.Better == "lower"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	wins := 0
	for i := range c.parent {
		if better(c.change[i], c.parent[i]) {
			wins++
		}
	}
	pm, cm := median(c.parent), median(c.change)
	q1, q3 := quartiles(c.parent)
	n := len(c.parent)
	if n >= minPairs && wins*10 >= 9*n && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return "improved", wins
	}
	if c.metric.Bound == nil {
		return "-", wins
	}
	bound := *c.metric.Bound * math.Abs(pm)
	worseBy := cm - pm
	if !lower {
		worseBy = -worseBy
	}
	allBetter := true
	for _, cv := range c.change {
		for _, pv := range c.parent {
			allBetter = allBetter && better(cv, pv)
		}
	}
	switch {
	case q3-q1 > bound && !allBetter:
		return "unresolved", wins
	case worseBy > bound:
		return "worse", wins
	}
	return "no worse", wins
}

func printComparison(stdout, stderr io.Writer, spec benchSpec, parents, changes []Set) int {
	if len(parents) != len(changes) {
		fmt.Fprintf(stderr, "lard-perf compare: %d parent sets but %d change sets; runs pair by position\n", len(parents), len(changes))
		return 2
	}
	for _, s := range append(slices.Clone(parents[1:]), changes...) {
		p := parents[0]
		if s.Seconds != p.Seconds || s.Quick != p.Quick || s.Trace != p.Trace {
			fmt.Fprintln(stderr, "lard-perf compare: warning: sets were run with different -seconds, -quick or -trace")
			break
		}
	}
	if len(parents) < minPairs {
		fmt.Fprintf(stderr, "lard-perf compare: %d pairs; a gain needs at least %d\n", len(parents), minPairs)
	}
	metrics := append(slices.Clone(spec.EndToEnd), spec.PerLayer...)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median\t[q1, q3]\tchange median\t[q1, q3]\tchange won\tverdict\t")
	worse := false
	for _, w := range parents[0].Workloads {
		for _, m := range metrics {
			c := comparison{metric: m}
			for i := range parents {
				pv, okP := metricOf(parents[i], w.Name, m.Name)
				cv, okC := metricOf(changes[i], w.Name, m.Name)
				if okP && okC {
					c.parent = append(c.parent, pv)
					c.change = append(c.change, cv)
				}
			}
			if len(c.parent) == 0 {
				continue
			}
			v, wins := c.verdict()
			worse = worse || v == "worse"
			pq1, pq3 := quartiles(c.parent)
			cq1, cq3 := quartiles(c.change)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t[%.4g, %.4g]\t%.4g\t[%.4g, %.4g]\t%d/%d\t%s\t\n",
				w.Name, m.Name, m.Unit, median(c.parent), pq1, pq3, median(c.change), cq1, cq3, wins, len(c.parent), v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "lard-perf compare:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

func metricOf(s Set, workload, metric string) (float64, bool) {
	for _, w := range s.Workloads {
		if w.Name == workload {
			m, ok := w.Metrics[metric]
			return m.Value, ok
		}
	}
	return 0, false
}
