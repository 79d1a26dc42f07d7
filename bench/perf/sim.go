package perf

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"lard"
	"lard/internal/harness"
	"lard/internal/resultstore"
	"lard/internal/sim"
	"lard/internal/trace"
)

// memberCores is the Table-1 machine the member workloads simulate.
const memberCores = 64

// runMember is member-l1 and member-replica: lard.Run of one benchmark
// under RT-3 at full length. The first run in a fresh process is the
// set-up, as a CLI user pays it on every invocation; then runs repeat back
// to back for the measured phase.
func runMember(e *env, bench string) error {
	scheme := lard.LocalityAware(3)
	opts := lard.Options{Cores: memberCores, OpsScale: e.scaled(1), Seed: e.seed}
	want, err := expectedOps(bench, opts.Cores, opts.OpsScale)
	if err != nil {
		return err
	}
	var first *lard.Result
	var capture *resultstore.Store
	if e.trace {
		// A memory-only store records the exact spec the facade resolved
		// the run to, which the replay driver then simulates.
		if capture, err = resultstore.New(""); err != nil {
			return err
		}
		first, _, err = lard.RunWithStore(capture, bench, scheme, opts)
	} else {
		first, err = lard.Run(bench, scheme, opts)
	}
	if err != nil {
		return err
	}
	digest, err := digestOf(first)
	if err != nil {
		return err
	}
	e.rep.Digest = digest
	e.check(checkLardOps(first, want))
	e.ready()
	if e.trace {
		specs, err := storedSpecs(capture, nil)
		if err != nil {
			return err
		}
		return e.simLayers(specs, e.dur)
	}

	m, err := e.startMeter()
	if err != nil {
		return err
	}
	var rates []float64
	for start := time.Now(); len(rates) == 0 || time.Since(start) < e.dur; {
		// Each timed run starts from the clean heap a fresh CLI process
		// has, so neither its time nor its peak resident set depends on
		// when the previous run's garbage happened to be collected and
		// returned to the system.
		debug.FreeOSMemory()
		if err := m.begin(); err != nil {
			return err
		}
		t := time.Now()
		r, err := lard.Run(bench, scheme, opts)
		d := time.Since(t)
		if err != nil {
			return err
		}
		if err := m.end(ms(d)); err != nil {
			return err
		}
		rates = append(rates, float64(r.Ops)/d.Seconds())
		got, err := digestOf(r)
		e.check(errors.Join(err, checkLardOps(r, want), checkDigest(got, digest)))
	}
	m.report()
	e.set("throughput_per_s", median(rates), "1/s", len(rates))
	return nil
}

// matrixBenches are the Figure-7 campaign's benchmarks: the two member
// workloads' plus the off-chip-heavy FLUIDANIM. and LU-NC.
var matrixBenches = []string{"BARNES", "DEDUP", "FLUIDANIM.", "BLACKSCH.", "LU-NC", "STREAMCLUS."}

// runMatrix is fig7-matrix: harness.RunMatrix over every standard scheme
// column. Set-up ends when the first timed matrix can start, after one
// warm-up member.
func runMatrix(e *env) error {
	base := harness.Base{
		Cores:       16,
		OpsScale:    e.scaled(0.25),
		Seed:        e.seed,
		Parallelism: runtime.NumCPU(),
		Benchmarks:  matrixBenches,
	}
	vs := harness.StandardVariants()
	want := make(map[string]uint64, len(matrixBenches))
	for _, b := range matrixBenches {
		n, err := expectedOps(b, base.Cores, base.OpsScale)
		if err != nil {
			return err
		}
		want[b] = n
	}
	warm, err := harness.Run(base, matrixBenches[0], vs[0])
	if err != nil {
		return err
	}
	e.check(checkSimOps(warm, want[matrixBenches[0]]))
	e.ready()
	if e.trace {
		return matrixLayers(e, base, vs, want)
	}

	mt, err := e.startMeter()
	if err != nil {
		return err
	}
	var rates []float64
	for start := time.Now(); len(rates) == 0 || time.Since(start) < e.dur; {
		debug.FreeOSMemory() // a clean heap per matrix, as in runMember
		if err := mt.begin(); err != nil {
			return err
		}
		t := time.Now()
		m, err := harness.RunMatrix(base, vs)
		d := time.Since(t)
		if err != nil {
			return err
		}
		if err := mt.end(ms(d)); err != nil {
			return err
		}
		digest, n, err := checkMatrix(m, want)
		rates = append(rates, float64(n)/d.Seconds())
		if e.rep.Digest == "" {
			e.rep.Digest = digest
		}
		e.check(errors.Join(err, checkDigest(digest, e.rep.Digest)))
	}
	mt.report()
	e.set("throughput_per_s", median(rates), "1/s", len(rates))
	return nil
}

// checkMatrix checks that every cell is present and conserves operations,
// and digests the cells in figure order.
func checkMatrix(m *harness.Matrix, want map[string]uint64) (digest string, ops uint64, err error) {
	type cell struct {
		Bench, Label string
		Result       *sim.Result
	}
	var cells []cell
	var errs []error
	for _, b := range m.Benches {
		for _, v := range m.Variants {
			r := m.Get(b, v.Label)
			if r == nil {
				errs = append(errs, fmt.Errorf("matrix cell %s/%s missing", b, v.Label))
				continue
			}
			errs = append(errs, checkSimOps(r, want[b]))
			ops += r.Ops
			cells = append(cells, cell{b, v.Label, r})
		}
	}
	digest, err = digestOf(cells)
	return digest, ops, errors.Join(append(errs, err)...)
}

// matrixLayers is fig7-matrix's traced phase: one matrix through a
// capturing store, each member timed alone, then every simulation the
// matrix ran replayed.
func matrixLayers(e *env, base harness.Base, vs []harness.Variant, want map[string]uint64) error {
	capture, err := resultstore.New("")
	if err != nil {
		return err
	}
	cb := base
	cb.Store = capture
	t := time.Now()
	m, err := harness.RunMatrix(cb, vs)
	matrixS := time.Since(t).Seconds()
	if err != nil {
		return err
	}
	digest, _, err := checkMatrix(m, want)
	e.check(err)
	e.rep.Digest = digest

	var memberS []float64
	var total float64
	for _, b := range base.Benchmarks {
		for _, v := range vs {
			t := time.Now()
			r, err := harness.Run(base, b, v)
			d := time.Since(t).Seconds()
			memberS = append(memberS, d)
			total += d
			if err != nil {
				return err
			}
			e.check(checkSimOps(r, want[b]))
		}
	}
	e.set("harness.member_s_max", slices.Max(memberS), "s", len(memberS))
	e.set("harness.parallel_efficiency", total/(float64(base.Parallelism)*matrixS), "ratio", len(memberS))

	specs, err := storedSpecs(capture, nil)
	if err != nil {
		return err
	}
	return e.simLayers(specs, 0)
}

// captured is one simulation a workload ran, as its result store holds it.
type captured struct {
	spec resultstore.Spec
	res  *sim.Result
}

// storedSpecs reads back the given keys from st, or every key when keys is
// nil.
func storedSpecs(st *resultstore.Store, keys []string) ([]captured, error) {
	if keys == nil {
		var err error
		if keys, err = st.Keys(); err != nil {
			return nil, err
		}
	}
	out := make([]captured, 0, len(keys))
	for _, k := range keys {
		res, spec, ok, err := st.GetByKey(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("stored spec %.12s missing", k)
		}
		out = append(out, captured{spec, res})
	}
	return out, nil
}

// simLayers replays every captured simulation through the traced driver,
// each right after an untraced sim.Run of the same spec, repeating the set
// until d has passed. Both must reproduce the stored outcome exactly.
func (e *env) simLayers(specs []captured, d time.Duration) error {
	rec := NewRecorder()
	var untraced, traced time.Duration
	var allocMB, mallocs []float64
	for start := time.Now(); ; {
		for _, c := range specs {
			prof, err := trace.ProfileByName(c.spec.Benchmark)
			if err != nil {
				return err
			}
			cfg := c.spec.Config
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t := time.Now()
			ref := sim.Run(&cfg, prof, c.spec.Options)
			untraced += time.Since(t)
			runtime.ReadMemStats(&m1)
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))

			cfg = c.spec.Config
			t = time.Now()
			got := Replay(&cfg, prof, c.spec.Options, rec)
			traced += time.Since(t)
			e.check(errors.Join(sameOutcome(ref, c.res), sameOutcome(got, ref)))
		}
		if time.Since(start) >= d {
			break
		}
	}
	rec.layerMetrics(e.set)
	e.set("sim.alloc_mb_per_run", median(allocMB), "MB/run", len(allocMB))
	e.set("sim.mallocs_per_run", median(mallocs), "count/run", len(mallocs))
	e.set("trace_overhead_frac", traced.Seconds()/untraced.Seconds()-1, "ratio", len(allocMB))
	return e.writeSpans(rec)
}
