// Package lard (Locality-Aware Replication of Data) is a from-scratch Go
// reproduction of "Locality-Aware Data Replication in the Last-Level Cache"
// (Kurian, Devadas, Khan — HPCA 2014).
//
// The package is a facade over the full simulation stack in internal/: a
// 64-core tiled multicore with private L1 caches, a distributed shared LLC
// with an in-cache ACKwise directory, a 2-D mesh NoC with contention, DRAM
// controllers with finite bandwidth, dynamic-energy accounting, synthetic
// workloads for the paper's 21 benchmarks, and six LLC management schemes:
// the paper's five, including its locality-aware replication protocol, and
// an expected-hit-count scheme.
//
// Quick start:
//
//	res, err := lard.Run("BARNES", lard.LocalityAware(3), lard.Options{})
//	fmt.Println(res.CompletionCycles, res.EnergyTotalPJ())
//
// Options.Observer is the one way to watch a run: phase timing, progress,
// an epoch timeline (an *obs.Recorder) and stopping all go through it,
// and RunWithStoreProgress adds context cancellation on top.
//
// See README.md for the system inventory and PAPER.md for the paper's
// abstract.
package lard

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/sim"
	"lard/internal/stats"
	"lard/internal/trace"
)

// Scheme selects and parameterizes an LLC management scheme. The zero value
// is not valid; use one of the constructors.
type Scheme struct {
	// Kind selects a scheme by its wire name: the five paper schemes
	// "S-NUCA", "R-NUCA", "VR", "ASR", "RT", and "EHC" (see SchemeKinds
	// and GET /v1/schemes).
	Kind string `json:"kind"`
	// RT is the replication threshold of the locality-aware protocol.
	RT int `json:"rt,omitempty"`
	// ClassifierK selects the Limited-k classifier (0 = Complete).
	ClassifierK int `json:"classifier_k,omitempty"`
	// ClusterSize is the replication cluster size (1, 4, 16 or 64).
	ClusterSize int `json:"cluster_size,omitempty"`
	// ASRLevel is ASR's replication probability (0, .25, .5, .75, 1).
	ASRLevel float64 `json:"asr_level,omitempty"`
	// PlainLRU replaces the paper's modified-LRU LLC replacement policy
	// with traditional LRU (the §4.2 ablation).
	PlainLRU bool `json:"plain_lru,omitempty"`
	// TLH replaces the replacement policy with the temporal-locality-hint
	// LRU alternative §2.2.4 cites.
	TLH bool `json:"tlh,omitempty"`
	// KeepL1OnReplicaEvict enables the §2.2.3 strategy the paper rejected:
	// replica eviction leaves the L1 copy valid.
	KeepL1OnReplicaEvict bool `json:"keep_l1_on_replica_evict,omitempty"`
	// LookupOracle enables the §2.3.2 perfect local-lookup oracle.
	LookupOracle bool `json:"lookup_oracle,omitempty"`
}

// SNUCA returns the Static-NUCA baseline.
func SNUCA() Scheme { return Scheme{Kind: "S-NUCA"} }

// RNUCA returns the Reactive-NUCA baseline.
func RNUCA() Scheme { return Scheme{Kind: "R-NUCA"} }

// VictimReplication returns the VR baseline.
func VictimReplication() Scheme { return Scheme{Kind: "VR"} }

// ASR returns the Adaptive Selective Replication baseline at the given
// replication level.
func ASR(level float64) Scheme { return Scheme{Kind: "ASR", ASRLevel: level} }

// LocalityAware returns the paper's protocol with replication threshold rt,
// the Limited-3 classifier and cluster size 1 (the Table-1 defaults).
func LocalityAware(rt int) Scheme {
	return Scheme{Kind: "RT", RT: rt, ClassifierK: 3, ClusterSize: 1}
}

// ExpectedHitCount returns the expected-hit-count replication scheme with
// threshold rt: a line replicates in every remote reader's local slice once
// its home has serviced rt reads since the last write.
func ExpectedHitCount(rt int) Scheme { return Scheme{Kind: "EHC", RT: rt} }

// Label renders the scheme the way the paper's figures do: Kind-<RT> for a
// scheme whose policy consumes the replication threshold ("RT-3", "EHC-3"),
// the kind string otherwise (unknown kinds included).
func (s Scheme) Label() string {
	if _, d, ok := lookup(s.Kind); ok && d.ThresholdRT {
		return s.Kind + "-" + strconv.Itoa(s.RT)
	}
	return s.Kind
}

// Options configure a run.
type Options struct {
	// Cores overrides the core count (default 64). The supported presets
	// are 4, 16 and 64; any other value is rejected.
	Cores int `json:"cores,omitempty"`
	// OpsScale scales per-core operation counts; 1.0 (default) is the
	// profile's nominal length, smaller values speed up exploration.
	OpsScale float64 `json:"ops_scale,omitempty"`
	// Seed selects the deterministic workload instance.
	Seed uint64 `json:"seed,omitempty"`
	// CheckInvariants enables the coherence correctness checker.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// TrackRuns collects the Figure-1 run-length histogram.
	TrackRuns bool `json:"track_runs,omitempty"`
	// Observer, when non-nil, watches the simulation: its phase
	// boundaries (setup, trace decode, coherence loop, finalize) and an
	// epoch every few thousand operations carrying progress and the
	// counter series (see obs.RunObserver; an *obs.Recorder records the
	// epochs as a timeline). It is execution plumbing, not run identity:
	// excluded from JSON encoding and from content addresses, and never
	// called on a store hit (nothing was simulated).
	Observer obs.RunObserver `json:"-"`
}

// Result is the outcome of one run, in plain exportable types.
type Result struct {
	// Benchmark and Scheme identify the run.
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	// CompletionCycles is the parallel-region completion time.
	CompletionCycles uint64 `json:"completion_cycles"`
	// TimeBreakdown maps §3.4 component names to per-core average cycles.
	TimeBreakdown map[string]uint64 `json:"time_breakdown"`
	// EnergyPJ maps Figure-6 component names to picojoules.
	EnergyPJ map[string]float64 `json:"energy_pj"`
	// Misses maps miss-type names to access counts.
	Misses map[string]uint64 `json:"misses"`
	// RunLengthShares maps "class bucket" (e.g. "shared-rw [>=10]") to the
	// fraction of LLC accesses, when Options.TrackRuns was set.
	RunLengthShares map[string]float64 `json:"run_length_shares,omitempty"`
	// Ops is the total number of memory references executed.
	Ops uint64 `json:"ops"`
}

// EnergyTotalPJ returns the total dynamic energy of the run. It sums the
// components in Figure-6 order, as sim.Result.EnergyTotal does, so the two
// agree bit for bit and an auto-tuned column picks the same candidate
// from either (ReportedMembers).
func (r *Result) EnergyTotalPJ() float64 {
	var t float64
	for i := 0; i < energy.NumComponents; i++ {
		t += r.EnergyPJ[energy.Component(i).String()]
	}
	return t
}

// TotalTime returns the sum of the time-breakdown components (the average
// per-core busy time).
func (r *Result) TotalTime() uint64 {
	var t uint64
	for _, v := range r.TimeBreakdown {
		t += v
	}
	return t
}

// Benchmarks returns the 21 benchmark names in figure order.
func Benchmarks() []string { return trace.Names() }

// Run simulates one benchmark under one scheme and returns the result. A
// run its Observer stops returns context.Canceled.
func Run(benchmark string, s Scheme, o Options) (*Result, error) {
	res, _, err := Simulate(context.Background(), nil, benchmark, s, o)
	if err != nil {
		return nil, err
	}
	return export(res), nil
}

// plan resolves (benchmark, s, o) into everything a store-backed run
// needs: the workload profile, the validated configuration and options,
// and the canonical spec. Keeping this in one place guarantees KeyFor,
// LookupStored and Simulate (every run path, the harness's included) can
// never disagree about a run's address.
func plan(benchmark string, s Scheme, o Options) (trace.Profile, *config.Config, sim.Options, resultstore.Spec, error) {
	prof, err := trace.ProfileByName(benchmark)
	if err != nil {
		return trace.Profile{}, nil, sim.Options{}, resultstore.Spec{}, err
	}
	cfg, opt, err := buildConfig(s, o)
	if err == nil {
		err = checkOpsScale(prof, o.OpsScale)
	}
	if err != nil {
		return trace.Profile{}, nil, sim.Options{}, resultstore.Spec{}, err
	}
	return prof, cfg, opt, resultstore.SpecFor(benchmark, cfg, opt), nil
}

// checkOpsScale rejects an OpsScale that names no run: a negative (or NaN)
// scale, or one whose per-core operation count does not fit an int. Either
// would otherwise wrap or clamp to one operation per core under a key of
// its own. 0 means the default, 1.0.
func checkOpsScale(p trace.Profile, scale float64) error {
	if !(scale >= 0) {
		return fmt.Errorf("ops_scale %v: must be positive, or 0 for the default", scale)
	}
	// float64(math.MaxInt) is 2^63, the first count past an int.
	if float64(p.Ops)*scale >= math.MaxInt {
		return fmt.Errorf("ops_scale %v: %s's per-core operation count overflows", scale, p.Name)
	}
	return nil
}

// KeyFor returns the canonical content address of (benchmark, s, o): the
// key under which a result store caches this run. Two requests have the
// same key exactly when they are guaranteed to produce the same Result.
func KeyFor(benchmark string, s Scheme, o Options) (string, error) {
	_, _, _, spec, err := plan(benchmark, s, o)
	if err != nil {
		return "", err
	}
	return spec.Key(), nil
}

// LookupStored peeks at a result store: it returns the stored result for
// (benchmark, s, o) if one exists, without ever simulating.
func LookupStored(st *resultstore.Store, benchmark string, s Scheme, o Options) (*Result, bool, error) {
	_, _, _, spec, err := plan(benchmark, s, o)
	if err != nil {
		return nil, false, err
	}
	res, ok, err := st.Get(spec)
	if err != nil || !ok {
		return nil, false, err
	}
	return export(res), true, nil
}

// RunWithStore is Run backed by a result store: a previously computed
// (benchmark, scheme, options) run is served from the store without
// simulating, and a fresh run is stored before returning. The bool reports
// whether the result came from cache.
func RunWithStore(st *resultstore.Store, benchmark string, s Scheme, o Options) (*Result, bool, error) {
	return RunWithStoreProgress(context.Background(), st, benchmark, s, o)
}

// RunWithStoreProgress is the execution engine's run primitive:
// RunWithStore plus context cancellation (see Simulate).
func RunWithStoreProgress(ctx context.Context, st *resultstore.Store, benchmark string, s Scheme, o Options) (*Result, bool, error) {
	res, cached, err := Simulate(ctx, st, benchmark, s, o)
	if err != nil {
		return nil, false, err
	}
	return export(res), cached, nil
}

// Simulate is the one run path beneath Run and RunWithStoreProgress,
// returning the internal result that internal/harness renders figures
// from. With a store, a stored run is served without simulating (the bool
// reports it) and a fresh run is stored before returning; with st nil it
// always simulates. A cancelled ctx stops the simulation at its next
// observer epoch and returns ctx's error; nothing is stored for a stopped
// run, so a later resubmission simulates afresh. Store hits return
// instantly, without calling o.Observer.
func Simulate(ctx context.Context, st *resultstore.Store, benchmark string, s Scheme, o Options) (*sim.Result, bool, error) {
	prof, cfg, opt, spec, err := plan(benchmark, s, o)
	if err != nil {
		return nil, false, err
	}
	if ctx.Done() != nil {
		opt.Observer = ctxObserver{ctx, opt.Observer}
	}
	compute := func() (*sim.Result, error) {
		r := sim.Run(cfg, prof, opt)
		if r == nil {
			// sim.Run returns nil only when an observer stops it.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		return r, nil
	}
	if st == nil {
		r, err := compute()
		return r, false, err
	}
	return st.GetOrCompute(spec, compute)
}

// ctxObserver forwards to the caller's observer (nil allowed) and stops
// the run once ctx is done.
type ctxObserver struct {
	ctx  context.Context
	next obs.RunObserver
}

func (c ctxObserver) Phase(name string, start time.Time, d time.Duration) {
	if c.next != nil {
		c.next.Phase(name, start, d)
	}
}

func (c ctxObserver) Epoch(e *obs.RunEpoch) bool {
	stop := c.next != nil && c.next.Epoch(e)
	return stop || c.ctx.Err() != nil
}

// buildConfig translates the public Scheme/Options into the internal
// configuration through the scheme table (see schemes.go): the kind
// resolves to its table row, which validates and applies the parameters
// its policy consumes. The scheme-independent knobs (replacement policy,
// ablation switches) apply uniformly afterwards.
func buildConfig(s Scheme, o Options) (*config.Config, sim.Options, error) {
	def, err := defFor(s.Kind)
	if err != nil {
		return nil, sim.Options{}, err
	}
	if def.validate != nil {
		if err := def.validate(s); err != nil {
			return nil, sim.Options{}, err
		}
	}
	cfg, err := config.ForCores(o.Cores)
	if err != nil {
		return nil, sim.Options{}, err
	}
	opt := sim.Options{
		Scheme:          def.engine,
		Seed:            o.Seed,
		OpsScale:        o.OpsScale,
		CheckInvariants: o.CheckInvariants,
		TrackRuns:       o.TrackRuns,
		Observer:        o.Observer,
	}
	if def.apply != nil {
		def.apply(s, cfg, &opt)
	}
	if s.PlainLRU {
		cfg.Replacement = config.PlainLRU
	}
	if s.TLH {
		cfg.Replacement = config.TLHLRU
	}
	cfg.KeepL1OnReplicaEvict = s.KeepL1OnReplicaEvict
	cfg.LookupOracle = s.LookupOracle
	if err := cfg.Validate(); err != nil {
		return nil, sim.Options{}, err
	}
	return cfg, opt, nil
}

// export converts the internal result to the public shape.
func export(r *sim.Result) *Result {
	out := &Result{
		Benchmark:        r.Benchmark,
		Scheme:           r.Scheme,
		CompletionCycles: uint64(r.CompletionTime),
		TimeBreakdown:    make(map[string]uint64, stats.NumTimeComponents),
		EnergyPJ:         make(map[string]float64, energy.NumComponents),
		Misses:           make(map[string]uint64, stats.NumMissTypes),
		Ops:              r.Ops,
	}
	for i := 0; i < stats.NumTimeComponents; i++ {
		out.TimeBreakdown[stats.TimeComponent(i).String()] = uint64(r.Time[i])
	}
	for i := 0; i < energy.NumComponents; i++ {
		out.EnergyPJ[energy.Component(i).String()] = r.EnergyPJ[i]
	}
	for i := 0; i < stats.NumMissTypes; i++ {
		out.Misses[stats.MissType(i).String()] = r.Miss[i]
	}
	if r.Runs != nil {
		out.RunLengthShares = make(map[string]float64)
		for c := 0; c < mem.NumDataClasses; c++ {
			for b := 0; b < stats.NumRunBuckets; b++ {
				key := fmt.Sprintf("%s %s", mem.DataClass(c), stats.RunBucket(b))
				out.RunLengthShares[key] = r.Runs.Share(mem.DataClass(c), stats.RunBucket(b))
			}
		}
	}
	return out
}
