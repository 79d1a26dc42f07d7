package trace

import (
	"fmt"

	"lard/internal/config"
)

// Profile parameterizes one synthetic benchmark. Working-set sizes are given
// in cache lines for the Table-1 machine (L1-I 256 lines, L1-D 512 lines,
// LLC slice 4096 lines, 64 cores / 256K lines aggregate LLC) and are scaled
// with the cache sizes of the actual configuration at generation time.
type Profile struct {
	// Name is the benchmark name as it appears in the paper's figures.
	Name string
	// Ops is the nominal per-core number of memory references.
	Ops int
	// Gap is the mean compute-cycle gap between references.
	Gap int
	// Barriers is the number of global synchronization points.
	Barriers int

	// FracInstr, FracSharedRO, FracSharedRW are the access-mix fractions of
	// the LLC-relevant traffic; private data receives the remainder.
	FracInstr, FracSharedRO, FracSharedRW float64
	// FracHot is the fraction of ALL references that go to a small per-core
	// L1-resident hot set (stack/register-spill traffic): it models the L1
	// hit rate of the real program and scales the other fractions down.
	FracHot float64

	// InstrLines is the shared instruction working set.
	InstrLines int
	// PrivLines is the per-core private working set; sizes far above the
	// aggregate LLC share model streaming benchmarks.
	PrivLines int
	// PrivWriteFrac is the store fraction of private references.
	PrivWriteFrac float64
	// FalseShare places private lines into cross-core shared pages
	// (page-level false sharing, the BLACKSCHOLES pathology of §4.1).
	FalseShare bool
	// ROLines is the shared read-only working set.
	ROLines int
	// RWLines is the shared read-write working set.
	RWLines int
	// RWWriteFrac is the fraction of shared read-write references that are
	// randomly-placed stores (models unstructured write sharing with LLC
	// run-lengths of about 1/((cores-1)·frac) core-passes).
	RWWriteFrac float64
	// RWOwnerPeriod, when positive, adds phase-structured writes: each
	// line's owning core rewrites it every RWOwnerPeriod passes, so other
	// cores observe an LLC run-length of about RWOwnerPeriod regardless of
	// the core count (the read-mostly sharing of BARNES/BODYTRACK/FACESIM).
	RWOwnerPeriod int
	// Migratory switches the shared read-write region to the exclusive
	// block hand-off pattern of LU-NC; MigSweeps is the per-ownership sweep
	// count (= the LLC run-length of migratory lines).
	Migratory bool
	// MigSweeps is the number of sweeps an owner makes over its block.
	MigSweeps int
}

// scaled returns a copy of p with working sets scaled to cfg's cache sizes:
// per-core and per-slice-replicated sets (instructions, private data, shared
// read-only/read-write replication candidates) scale with the slice size,
// while the migratory region — whose footprint is bounded by the aggregate
// LLC, not by any one slice — scales with the total LLC capacity so its
// per-owner block stays at the same multiple of the L1.
func (p Profile) scaled(cfg *config.Config) Profile {
	slice := float64(cfg.LLCSliceLines) / 4096.0
	total := float64(cfg.LLCSliceLines*cfg.Cores) / (4096.0 * 64)
	sc := func(n int, f float64) int {
		if n == 0 {
			return 0
		}
		v := int(float64(n) * f)
		if v < 8 {
			v = 8
		}
		return v
	}
	p.InstrLines = sc(p.InstrLines, slice)
	p.PrivLines = sc(p.PrivLines, slice)
	p.ROLines = sc(p.ROLines, slice)
	if p.Migratory {
		p.RWLines = sc(p.RWLines, total)
	} else {
		p.RWLines = sc(p.RWLines, slice)
	}
	return p
}

// Profiles lists the 21 benchmarks of Table 2 in the order of Figure 6. The
// comments record the paper behaviour each parameterization encodes; see
// §4.1 of the paper for the correspondence.
var Profiles = []Profile{
	// RADIX: streaming thread-private sort buckets plus low-reuse shared
	// key exchange; no replication benefit, R-NUCA's private placement wins.
	{Name: "RADIX", Ops: 60000, Gap: 8, Barriers: 4, FracHot: 0.5,
		FracInstr: 0.02, FracSharedRO: 0.03, FracSharedRW: 0.10,
		InstrLines: 64, PrivLines: 32768, PrivWriteFrac: 0.40,
		ROLines: 512, RWLines: 4096, RWWriteFrac: 0.30},

	// FFT: streaming private butterflies plus an all-to-all transpose with
	// run-length 1-2 shared data.
	{Name: "FFT", Ops: 60000, Gap: 8, Barriers: 6, FracHot: 0.5,
		FracInstr: 0.03, FracSharedRO: 0.05, FracSharedRW: 0.15,
		InstrLines: 96, PrivLines: 16384, PrivWriteFrac: 0.35,
		ROLines: 512, RWLines: 8192, RWWriteFrac: 0.25},

	// LU-C: blocked dense LU with contiguous blocks; reused thread-private
	// blocks that R-NUCA places locally. No replication opportunity.
	{Name: "LU-C", Ops: 60000, Gap: 12, Barriers: 8, FracHot: 0.7,
		FracInstr: 0.03, FracSharedRO: 0.07, FracSharedRW: 0.05,
		InstrLines: 96, PrivLines: 2048, PrivWriteFrac: 0.30,
		ROLines: 1024, RWLines: 2048, RWWriteFrac: 0.02},

	// LU-NC: non-contiguous LU exhibits migratory shared blocks handed from
	// core to core; replication needs E/M-state replicas (§2.3.1/§4.1).
	{Name: "LU-NC", Ops: 120000, Gap: 10, Barriers: 8, FracHot: 0.55,
		FracInstr: 0.03, FracSharedRO: 0.02, FracSharedRW: 0.72,
		InstrLines: 96, PrivLines: 1024, PrivWriteFrac: 0.30,
		ROLines: 256, RWLines: 65536, RWWriteFrac: 0,
		Migratory: true, MigSweeps: 6},

	// CHOLESKY: irregular supernodal factorization; moderate instruction
	// and shared read-only reuse plus some migratory-ish updates.
	{Name: "CHOLESKY", Ops: 60000, Gap: 10, Barriers: 4, FracHot: 0.62,
		FracInstr: 0.10, FracSharedRO: 0.20, FracSharedRW: 0.15,
		InstrLines: 512, PrivLines: 2048, PrivWriteFrac: 0.30,
		ROLines: 2048, RWLines: 2048, RWOwnerPeriod: 6},

	// BARNES: octree with >90% of LLC accesses to shared read-write data at
	// run-length >= 10 (Figure 1); the flagship replication win that only
	// locality-aware replication (and partially VR) captures.
	{Name: "BARNES", Ops: 60000, Gap: 10, Barriers: 4, FracHot: 0.55,
		FracInstr: 0.03, FracSharedRO: 0.05, FracSharedRW: 0.80,
		InstrLines: 96, PrivLines: 512, PrivWriteFrac: 0.20,
		ROLines: 512, RWLines: 2048, RWOwnerPeriod: 12},

	// OCEAN-C: grids far exceeding the LLC; streaming with run-length 1-2,
	// significant off-chip time; replication only pollutes.
	{Name: "OCEAN-C", Ops: 60000, Gap: 6, Barriers: 8, FracHot: 0.45,
		FracInstr: 0.02, FracSharedRO: 0.02, FracSharedRW: 0.16,
		InstrLines: 64, PrivLines: 65536, PrivWriteFrac: 0.40,
		ROLines: 256, RWLines: 16384, RWWriteFrac: 0.20},

	// OCEAN-NC: smaller grids with boundary sharing; balancing on-chip
	// locality against off-chip misses matters, RT-3 shines (§4.1).
	{Name: "OCEAN-NC", Ops: 60000, Gap: 6, Barriers: 8, FracHot: 0.45,
		FracInstr: 0.02, FracSharedRO: 0.02, FracSharedRW: 0.36,
		InstrLines: 64, PrivLines: 24576, PrivWriteFrac: 0.40,
		ROLines: 256, RWLines: 8192, RWOwnerPeriod: 4},

	// WATER-NSQ: O(n^2) molecular dynamics; reused shared read-only
	// positions plus lightly-written accumulations.
	{Name: "WATER-NSQ", Ops: 60000, Gap: 12, Barriers: 4, FracHot: 0.65,
		FracInstr: 0.05, FracSharedRO: 0.45, FracSharedRW: 0.15,
		InstrLines: 160, PrivLines: 1024, PrivWriteFrac: 0.30,
		ROLines: 2048, RWLines: 1024, RWOwnerPeriod: 8},

	// RAYTRACE: large read-only scene with low per-line sharing degree and
	// a significant instruction footprint (one of three high L1-I MPKI
	// benchmarks).
	{Name: "RAYTRACE", Ops: 60000, Gap: 10, Barriers: 2, FracHot: 0.6,
		FracInstr: 0.25, FracSharedRO: 0.45, FracSharedRW: 0.05,
		InstrLines: 1024, PrivLines: 1024, PrivWriteFrac: 0.25,
		ROLines: 8192, RWLines: 512, RWWriteFrac: 0.01},

	// VOLREND: ray-cast volume rendering; instructions + read-only volume.
	{Name: "VOLREND", Ops: 60000, Gap: 10, Barriers: 3, FracHot: 0.65,
		FracInstr: 0.20, FracSharedRO: 0.35, FracSharedRW: 0.08,
		InstrLines: 768, PrivLines: 1024, PrivWriteFrac: 0.25,
		ROLines: 2048, RWLines: 512, RWWriteFrac: 0.01},

	// BLACKSCHOLES: embarrassingly parallel over options, but the option
	// arrays exhibit page-level false sharing, defeating R-NUCA's page-grain
	// private placement; cache-line-grain replication recovers it (§4.1).
	{Name: "BLACKSCH.", Ops: 60000, Gap: 12, Barriers: 2, FracHot: 0.72,
		FracInstr: 0.05, FracSharedRO: 0.15, FracSharedRW: 0,
		InstrLines: 128, PrivLines: 1024, PrivWriteFrac: 0.10, FalseShare: true,
		ROLines: 1024},

	// SWAPTIONS: Monte-Carlo over swaptions; private simulation state plus
	// modest shared read-only parameters.
	{Name: "SWAPTIONS", Ops: 60000, Gap: 15, Barriers: 2, FracHot: 0.75,
		FracInstr: 0.08, FracSharedRO: 0.17, FracSharedRW: 0,
		InstrLines: 256, PrivLines: 1024, PrivWriteFrac: 0.30,
		ROLines: 1024},

	// FLUIDANIMATE: particle grid exceeding the LLC with low-reuse shared
	// boundary cells; indiscriminate replication (RT-1) raises the off-chip
	// miss rate, RT-3 is needed (§4.1).
	{Name: "FLUIDANIM.", Ops: 60000, Gap: 6, Barriers: 6, FracHot: 0.45,
		FracInstr: 0.03, FracSharedRO: 0.02, FracSharedRW: 0.25,
		InstrLines: 96, PrivLines: 32768, PrivWriteFrac: 0.40,
		ROLines: 256, RWLines: 16384, RWWriteFrac: 0.08},

	// STREAMCLUSTER: k-median over points read by all cores with high
	// reuse; widely-shared read-mostly data where limited classifiers
	// mis-start new sharers (§4.3) and RT-8 delays replica creation.
	{Name: "STREAMCLUS.", Ops: 60000, Gap: 10, Barriers: 6, FracHot: 0.58,
		FracInstr: 0.04, FracSharedRO: 0.42, FracSharedRW: 0.25,
		InstrLines: 128, PrivLines: 512, PrivWriteFrac: 0.25,
		ROLines: 4096, RWLines: 1024, RWOwnerPeriod: 5},

	// DEDUP: pipelined compression; almost exclusively private data without
	// false sharing — R-NUCA (and anything built on it) is optimal.
	{Name: "DEDUP", Ops: 60000, Gap: 12, Barriers: 2, FracHot: 0.72,
		FracInstr: 0.06, FracSharedRO: 0.04, FracSharedRW: 0,
		InstrLines: 192, PrivLines: 2048, PrivWriteFrac: 0.35,
		ROLines: 256},

	// FERRET: similarity-search pipeline; mixed instructions, shared
	// read-only database and private stage buffers.
	{Name: "FERRET", Ops: 60000, Gap: 10, Barriers: 3, FracHot: 0.62,
		FracInstr: 0.12, FracSharedRO: 0.33, FracSharedRW: 0.05,
		InstrLines: 512, PrivLines: 1024, PrivWriteFrac: 0.30,
		ROLines: 2048, RWLines: 512, RWOwnerPeriod: 8},

	// BODYTRACK: high instruction footprint plus shared read-only frames;
	// read-write data is mostly read (§4.1 groups it with FACESIM).
	{Name: "BODYTRACK", Ops: 60000, Gap: 10, Barriers: 4, FracHot: 0.6,
		FracInstr: 0.30, FracSharedRO: 0.30, FracSharedRW: 0.10,
		InstrLines: 1024, PrivLines: 1024, PrivWriteFrac: 0.25,
		ROLines: 2048, RWLines: 1024, RWOwnerPeriod: 16},

	// FACESIM: the largest instruction working set of the suite plus
	// reused shared read-write mesh data with rare writes.
	{Name: "FACESIM", Ops: 60000, Gap: 10, Barriers: 4, FracHot: 0.58,
		FracInstr: 0.35, FracSharedRO: 0.15, FracSharedRW: 0.20,
		InstrLines: 2048, PrivLines: 1024, PrivWriteFrac: 0.25,
		ROLines: 1024, RWLines: 2048, RWOwnerPeriod: 16},

	// PATRICIA: trie lookups over shared read-only routing data with high
	// reuse (Figure 1 shows shared read-only dominating).
	{Name: "PATRICIA", Ops: 60000, Gap: 10, Barriers: 2, FracHot: 0.62,
		FracInstr: 0.08, FracSharedRO: 0.62, FracSharedRW: 0.05,
		InstrLines: 256, PrivLines: 512, PrivWriteFrac: 0.25,
		ROLines: 2560, RWLines: 512, RWWriteFrac: 0.01},

	// CONCOMP: connected components over a large graph; low-reuse shared
	// read-write edges and streaming private frontiers, working set beyond
	// the LLC; no replication benefit.
	{Name: "CONCOMP", Ops: 60000, Gap: 6, Barriers: 5, FracHot: 0.45,
		FracInstr: 0.03, FracSharedRO: 0.05, FracSharedRW: 0.40,
		InstrLines: 96, PrivLines: 16384, PrivWriteFrac: 0.35,
		ROLines: 1024, RWLines: 32768, RWWriteFrac: 0.12},
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Names returns the benchmark names in figure order.
func Names() []string {
	out := make([]string, len(Profiles))
	for i, p := range Profiles {
		out[i] = p.Name
	}
	return out
}
