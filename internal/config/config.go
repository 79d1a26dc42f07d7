// Package config holds the architectural parameters of the simulated
// multicore. Default64 reproduces Table 1 of the paper exactly; Small is a
// scaled-down configuration with the same *ratios* used by unit tests and Go
// benchmarks so the suite stays fast.
package config

import (
	"fmt"

	"lard/internal/directory"
	"lard/internal/mem"
)

// ReplacementPolicy selects the LLC victim-selection policy (§2.2.4).
type ReplacementPolicy uint8

// LLC replacement policies.
const (
	// PlainLRU is the traditional least-recently-used policy.
	PlainLRU ReplacementPolicy = iota
	// ModifiedLRU first selects the lines with the fewest L1 copies and then
	// the least recently used among them (the paper's policy, §2.2.4).
	ModifiedLRU
	// TLHLRU is plain LRU kept honest by Temporal Locality Hint messages
	// from the L1 to the LLC (Jaleel et al., the alternative §2.2.4 cites):
	// periodic L1 hits refresh the LLC copy's recency at the cost of extra
	// network traffic. The paper's modified-LRU achieves the same effect
	// from the in-cache directory for free.
	TLHLRU
)

// String implements fmt.Stringer.
func (p ReplacementPolicy) String() string {
	switch p {
	case ModifiedLRU:
		return "modified-lru"
	case TLHLRU:
		return "tlh-lru"
	default:
		return "lru"
	}
}

// Config collects every architectural parameter of the simulated system.
// All latencies are in cycles of the 1 GHz core clock.
type Config struct {
	// Cores is the number of tiles; MeshW*MeshH must equal Cores.
	Cores int
	// MeshW and MeshH are the mesh dimensions.
	MeshW, MeshH int

	// L1ILines and L1IWays describe the per-core L1 instruction cache.
	L1ILines, L1IWays int
	// L1DLines and L1DWays describe the per-core L1 data cache.
	L1DLines, L1DWays int
	// L1Latency is the L1 hit latency.
	L1Latency mem.Cycles

	// LLCSliceLines and LLCWays describe one per-core LLC (L2) slice.
	LLCSliceLines, LLCWays int
	// LLCTagLatency and LLCDataLatency are the LLC tag and data array
	// latencies (a hit pays tag+data).
	LLCTagLatency, LLCDataLatency mem.Cycles

	// AckwisePointers is p in ACKwise-p (0 selects a full-map directory).
	AckwisePointers int

	// DRAMControllers is the number of on-die memory controllers.
	DRAMControllers int
	// DRAMLatency is the fixed DRAM access latency (75 ns at 1 GHz).
	DRAMLatency mem.Cycles
	// DRAMCyclesPerLine is the per-controller bandwidth occupancy of one
	// cache-line transfer (64 B at 5 GB/s = 12.8 ns at 1 GHz).
	DRAMCyclesPerLine mem.Cycles

	// HopLatency is the per-hop mesh latency (1 router + 1 link).
	HopLatency mem.Cycles
	// HeaderFlits is the size of an address-only message; DataFlits is the
	// additional flits of a cache-line payload (512 bits / 64-bit flits).
	HeaderFlits, DataFlits int

	// RT is the replication threshold of the locality-aware protocol.
	RT int
	// ClassifierK is k of the Limited-k classifier; 0 selects Complete.
	ClassifierK int
	// ClusterSize is the replication cluster size (1 = local slice, §2.3.4).
	ClusterSize int
	// Replacement selects the LLC victim policy.
	Replacement ReplacementPolicy
	// TLHPeriod is the hint period of the TLHLRU policy: every TLHPeriod-th
	// L1 hit to a line sends a temporal locality hint to its LLC location.
	TLHPeriod int
	// LookupOracle enables the §2.3.2 dynamic oracle that skips local-slice
	// lookups that would miss (used only for the ablation).
	LookupOracle bool
	// KeepL1OnReplicaEvict enables the §2.2.3 alternative the paper
	// rejected: an evicted LLC replica leaves the L1 copy valid (two
	// acknowledgement messages instead of a back-invalidation). The paper
	// measured a negligible difference and chose the simpler protocol.
	KeepL1OnReplicaEvict bool
}

// Default64 returns the Table 1 configuration: 64 cores at 1 GHz, 16 KB/32 KB
// 4-way L1-I/L1-D (1 cycle), 256 KB 8-way LLC slices (2-cycle tag, 4-cycle
// data), ACKwise-4, 8 DRAM controllers at 5 GB/s and 75 ns, 2-cycle mesh hops,
// 64-bit flits with 1 header flit and 8-flit cache lines, RT = 3, Limited-3
// classifier, cluster size 1, modified-LRU replacement.
func Default64() *Config {
	return &Config{
		Cores: 64, MeshW: 8, MeshH: 8,
		L1ILines: 16 * 1024 / mem.LineBytes, L1IWays: 4,
		L1DLines: 32 * 1024 / mem.LineBytes, L1DWays: 4,
		L1Latency:     1,
		LLCSliceLines: 256 * 1024 / mem.LineBytes, LLCWays: 8,
		LLCTagLatency: 2, LLCDataLatency: 4,
		AckwisePointers: 4,
		DRAMControllers: 8, DRAMLatency: 75, DRAMCyclesPerLine: 13,
		HopLatency:  2,
		HeaderFlits: 1, DataFlits: 8,
		RT: 3, ClassifierK: 3, ClusterSize: 1,
		Replacement: ModifiedLRU, TLHPeriod: 16,
	}
}

// Small returns a 16-core configuration with caches scaled down 4x (same
// associativities, latencies and flit sizes) for fast tests and Go benchmarks.
func Small() *Config {
	c := Default64()
	c.Cores, c.MeshW, c.MeshH = 16, 4, 4
	c.L1ILines /= 4
	c.L1DLines /= 4
	c.LLCSliceLines /= 4
	c.DRAMControllers = 4
	return c
}

// ForCores returns the machine preset for a core count: the Table-1
// 64-core machine (also the 0-means-default case), or the scaled-down 16-
// and 4-core variants. It is the single source of truth for the supported
// presets — every layer that resolves a user-facing core count (the lard
// facade, the harness) goes through here, so a typo like 46 can never
// silently select a different machine than the one requested.
func ForCores(n int) (*Config, error) {
	switch n {
	case 0, 64:
		return Default64(), nil
	case 16:
		return Small(), nil
	case 4:
		c := Small()
		c.Cores, c.MeshW, c.MeshH = 4, 2, 2
		c.DRAMControllers = 2
		return c, nil
	}
	return nil, fmt.Errorf("config: unsupported core count %d (use 4, 16 or 64)", n)
}

// MaxSliceLines bounds LLCSliceLines (a 4 GiB slice): the coherence
// engine's back-handles to home lines index a slice in 26 bits.
const MaxSliceLines = 1 << 26

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.Cores > directory.MaxCores:
		return fmt.Errorf("config: %d cores exceed the %d-core directory sharer bitset", c.Cores, directory.MaxCores)
	case c.MeshW*c.MeshH != c.Cores:
		return fmt.Errorf("config: mesh %dx%d does not cover %d cores", c.MeshW, c.MeshH, c.Cores)
	case c.L1ILines <= 0 || c.L1IWays <= 0 || c.L1ILines%c.L1IWays != 0:
		return fmt.Errorf("config: bad L1-I geometry %d lines / %d ways", c.L1ILines, c.L1IWays)
	case c.L1DLines <= 0 || c.L1DWays <= 0 || c.L1DLines%c.L1DWays != 0:
		return fmt.Errorf("config: bad L1-D geometry %d lines / %d ways", c.L1DLines, c.L1DWays)
	case c.LLCSliceLines <= 0 || c.LLCWays <= 0 || c.LLCSliceLines%c.LLCWays != 0:
		return fmt.Errorf("config: bad LLC geometry %d lines / %d ways", c.LLCSliceLines, c.LLCWays)
	case c.LLCSliceLines > MaxSliceLines:
		return fmt.Errorf("config: %d LLC lines per slice exceed the %d a home back-handle indexes", c.LLCSliceLines, MaxSliceLines)
	case c.AckwisePointers < 0:
		return fmt.Errorf("config: AckwisePointers must be >= 0, got %d", c.AckwisePointers)
	case c.DRAMControllers <= 0 || c.DRAMControllers > c.Cores:
		return fmt.Errorf("config: DRAMControllers %d out of range 1..%d", c.DRAMControllers, c.Cores)
	case c.RT < 1:
		return fmt.Errorf("config: RT must be >= 1, got %d", c.RT)
	case c.ClassifierK < 0 || c.ClassifierK > c.Cores:
		return fmt.Errorf("config: ClassifierK %d out of range 0..%d", c.ClassifierK, c.Cores)
	case c.ClusterSize < 1 || c.Cores%c.ClusterSize != 0:
		return fmt.Errorf("config: ClusterSize %d must divide Cores %d", c.ClusterSize, c.Cores)
	case c.HeaderFlits < 1 || c.DataFlits < 1:
		return fmt.Errorf("config: flit counts must be >= 1 (header %d, data %d)", c.HeaderFlits, c.DataFlits)
	}
	return nil
}

// Clone returns a deep copy (Config contains no reference fields today, but
// callers should not rely on that).
func (c *Config) Clone() *Config {
	d := *c
	return &d
}

// LLCTotalLines returns the aggregate LLC capacity in lines.
func (c *Config) LLCTotalLines() int { return c.LLCSliceLines * c.Cores }

// ClusterOf returns the replication cluster index of core id.
func (c *Config) ClusterOf(id mem.CoreID) int { return int(id) / c.ClusterSize }

// ClusterMembers returns the core IDs in cluster cl, lowest first.
func (c *Config) ClusterMembers(cl int) []mem.CoreID {
	out := make([]mem.CoreID, c.ClusterSize)
	for i := range out {
		out[i] = mem.CoreID(cl*c.ClusterSize + i)
	}
	return out
}
