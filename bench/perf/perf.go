// Package perf is the repository's benchmark: five workloads that exercise
// the simulator and the run service end to end, a traced mode that splits
// their host time into the repository's layers by timing calls into each
// layer from outside, output checks, and a comparison of result sets.
//
// Each workload runs in child processes of the lard-perf command, one at a
// time. Each child sets the workload up and measures it for its share of
// the run; every metric is the median over the children. See README.md for
// the workloads and metrics.
package perf

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. run sets the workload
// up, calls env.ready, and measures.
type workload struct {
	name string
	run  func(e *env) error
}

// workloads lists every workload in the order lard-perf runs them; their
// reasons are in BENCHMARK.json and README.md.
var workloads = []workload{
	{"member-l1", func(e *env) error { return runMember(e, "DEDUP") }},
	{"member-replica", func(e *env) error { return runMember(e, "BARNES") }},
	{"fig7-matrix", runMatrix},
	{"service-cached", runCached},
	{"service-mixed", runMixed},
}

const (
	// procs is how many processes run each workload in an untraced run,
	// each measuring for 1/procs of the run; setup_s is the median of their
	// set-up times.
	procs = 3
	// quickFactor cuts sizes and durations in -quick mode.
	quickFactor = 20
	// childTimeout bounds one workload process.
	childTimeout = 170 * time.Second
	// readyLine is what a workload process prints once set up.
	readyLine = "ready"
	// refLine is what a workload process prints to have the parent time
	// the reference loop (hostref.go).
	refLine = "ref"
)

// report is what one workload process hands back to lard-perf.
type report struct {
	tally
	// Digest is the SHA-256 of the workload's simulated results; every
	// process of a workload must agree on it.
	Digest  string            `json:"digest"`
	Metrics map[string]Metric `json:"metrics"`
}

// WorkloadResult is one workload's entry in a result set.
type WorkloadResult struct {
	Name string `json:"name"`
	tally
	Digest  string            `json:"digest"`
	Metrics map[string]Metric `json:"metrics"`
}

// Set is the JSON file one lard-perf invocation writes with -out.
type Set struct {
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Quick      bool             `json:"quick"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// env is one workload process's view of its run.
type env struct {
	name   string
	seed   uint64
	dur    time.Duration // the measured phase
	quick  bool
	trace  bool
	dir    string // scratch and span files, inside the checkout
	stdout io.Writer
	stdin  *bufio.Reader // the parent's answers to refLine
	rep    report
}

// scaled returns a full-size simulation length, cut in -quick mode.
func (e *env) scaled(full float64) float64 {
	if e.quick {
		return full / quickFactor
	}
	return full
}

// ready marks the end of set-up.
func (e *env) ready() { fmt.Fprintln(e.stdout, readyLine) }

func (e *env) check(err error) { e.rep.check(err) }

func (e *env) set(name string, v float64, unit string, n int) {
	e.rep.Metrics[name] = Metric{Value: v, Unit: unit, Samples: n}
}

// writeSpans writes the replay recorder as trace-<workload>.json.
func (e *env) writeSpans(rec *Recorder) error {
	b, err := json.Marshal(struct {
		Workload      string   `json:"workload"`
		ServicePoints []string `json:"service_points"`
		*Recorder
	}{e.name, []string{"L1-Hit", "LLC-Replica-Hit", "LLC-Home-Hit", "OffChip-Miss"}, rec})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.dir, "trace-"+e.name+".json"), b, 0o644)
}

// options are lard-perf's flags, shared by the parent and its children.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	dir      string
	bench    string
	out      string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, one after another)")
	fs.Uint64Var(&o.seed, "seed", 1, "seeds every trace, key choice and cold-run seed")
	fs.IntVar(&o.seconds, "seconds", 12, "length of each workload's measured phase")
	fs.Func("trace", "1 = traced run: per-layer metrics and trace-<workload>.json span files (default 0)", func(s string) error {
		b, err := strconv.ParseBool(s)
		o.trace = b
		return err
	})
	fs.BoolVar(&o.quick, "quick", false, "cut simulation sizes and phase lengths about 20x (smoke runs)")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perf"), "scratch directory for stores and trace-<workload>.json")
}

// Main runs lard-perf with args and returns its exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "child":
			return childMain(args[1:], stdout, stderr)
		}
	}
	var o options
	fs := flag.NewFlagSet("lard-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	fs.StringVar(&o.bench, "bench", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	fs.StringVar(&o.out, "out", "", "write the result set as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "lard-perf:", err)
		return 1
	}
	return 0
}

// run is the parent: every selected workload in its own processes, one
// after another, then the metric lines, the result set and the summary.
func run(o options, stdout, stderr io.Writer) error {
	spec, err := loadBenchSpec(o.bench)
	if err != nil {
		return err
	}
	todo := workloads
	if o.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
		if i < 0 {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = workloads[i : i+1]
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	listed := spec.EndToEnd
	if o.trace {
		listed = spec.PerLayer
	}

	set := Set{
		Commit:     commit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Quick:      o.quick,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var total tally
	summary := map[string]lineMetric{}
	ref := newHostRef(o.quick)
	for _, w := range todo {
		fmt.Fprintf(stderr, "lard-perf: %s (seed %d, trace %v)\n", w.name, o.seed, o.trace)
		res := runWorkload(o, w.name, ref, stderr)
		for _, m := range listed {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				res.check(fmt.Errorf("metric %s not reported", m.Name))
			case got.Unit != m.Unit:
				res.check(fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit))
			}
			key := m.Name
			if len(todo) > 1 {
				key = w.name + "/" + m.Name
			}
			summary[key] = lineMetric{Value: got.Value, Unit: m.Unit}
		}
		res.Metrics["error_rate"] = Metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted}
		for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
			m := res.Metrics[n]
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "lard-perf: %s: FAILED: %s\n", w.name, e)
		}
		total.merge(res.tally)
		set.Workloads = append(set.Workloads, res)
	}

	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{total.Failed == 0, total.Attempted, total.Failed, summary})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if total.Failed > 0 {
		return fmt.Errorf("%d of %d checked operations failed", total.Failed, total.Attempted)
	}
	return nil
}

// lineMetric is one metric of the summary line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload's processes one after another (a single
// one when traced, where set-up and memory are not reported) and reports
// each metric as the median over them.
func runWorkload(o options, name string, ref *hostRef, stderr io.Writer) WorkloadResult {
	res := WorkloadResult{Name: name, Metrics: map[string]Metric{}}
	n := procs
	if o.trace {
		n = 1
	}
	per := map[string][]Metric{}
	for range n {
		rep, setupS, err := spawn(o, name, ref, stderr)
		if err != nil {
			res.check(fmt.Errorf("%s process: %w", name, err))
			continue
		}
		res.merge(rep.tally)
		if res.Digest == "" {
			res.Digest = rep.Digest
		}
		res.check(checkDigest(rep.Digest, res.Digest))
		if !o.trace {
			rep.Metrics["setup_s"] = Metric{Value: setupS, Unit: "s", Samples: 1}
		}
		for k, m := range rep.Metrics {
			per[k] = append(per[k], m)
		}
	}
	for k, ms := range per {
		m := Metric{Unit: ms[0].Unit}
		vs := make([]float64, len(ms))
		for i, x := range ms {
			vs[i] = x.Value
			m.Samples += x.Samples
		}
		m.Value = median(vs)
		res.Metrics[k] = m
	}
	return res
}

// spawn runs one workload process and returns its report and the seconds
// from its start to its ready line. It times the reference loop whenever
// the process asks.
func spawn(o options, name string, ref *hostRef, stderr io.Writer) (rep report, setupS float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	args := []string{"child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.FormatBool(o.trace), "-dir", o.dir}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return rep, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, err
	}
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == readyLine && setupS == 0:
			setupS = time.Since(start).Seconds()
		case line == refLine:
			ref.answerRef(in)
		default:
			last = append(last[:0], sc.Bytes()...)
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return rep, 0, err
	}
	if scanErr != nil {
		return rep, 0, scanErr
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, 0, fmt.Errorf("read report: %w", err)
	}
	if setupS == 0 {
		return rep, 0, fmt.Errorf("set-up failed: %s", strings.Join(rep.Errors, "; "))
	}
	return rep, setupS, nil
}

// childMain is one workload process: it prints the ready line after
// set-up and its report as the last line. Untraced, it measures for its
// 1/procs share of -seconds.
func childMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("lard-perf child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
	if i < 0 {
		fmt.Fprintf(stderr, "lard-perf child: unknown workload %q\n", o.workload)
		return 2
	}
	e := &env{
		name:   o.workload,
		seed:   o.seed,
		dur:    time.Duration(o.seconds) * time.Second,
		quick:  o.quick,
		trace:  o.trace,
		dir:    o.dir,
		stdout: stdout,
		stdin:  bufio.NewReader(os.Stdin),
		rep:    report{Metrics: map[string]Metric{}},
	}
	if !o.trace {
		e.dur /= procs
	}
	if o.quick {
		e.dur /= quickFactor
	}
	if err := workloads[i].run(e); err != nil {
		e.check(fmt.Errorf("%s: %w", o.workload, err))
	}
	b, err := json.Marshal(e.rep)
	if err != nil {
		fmt.Fprintln(stderr, "lard-perf child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// commit names the source the binary was built from, when the build
// recorded it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// benchSpec is the part of BENCHMARK.json lard-perf reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
