package config

import (
	"strings"
	"testing"

	"lard/internal/mem"
)

// TestTable1 pins every Table-1 parameter of the paper.
func TestTable1(t *testing.T) {
	c := Default64()
	checks := []struct {
		name      string
		got, want int
	}{
		{"Cores", c.Cores, 64},
		{"MeshW", c.MeshW, 8},
		{"MeshH", c.MeshH, 8},
		{"L1I lines (16 KB)", c.L1ILines, 256},
		{"L1I ways", c.L1IWays, 4},
		{"L1D lines (32 KB)", c.L1DLines, 512},
		{"L1D ways", c.L1DWays, 4},
		{"LLC slice lines (256 KB)", c.LLCSliceLines, 4096},
		{"LLC ways", c.LLCWays, 8},
		{"ACKwise pointers", c.AckwisePointers, 4},
		{"DRAM controllers", c.DRAMControllers, 8},
		{"header flits", c.HeaderFlits, 1},
		{"data flits (512-bit line / 64-bit flit)", c.DataFlits, 8},
		{"RT", c.RT, 3},
		{"Limited-k", c.ClassifierK, 3},
		{"cluster size", c.ClusterSize, 1},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
	if c.L1Latency != 1 {
		t.Errorf("L1 latency = %d, want 1 cycle", c.L1Latency)
	}
	if c.LLCTagLatency != 2 || c.LLCDataLatency != 4 {
		t.Errorf("LLC latencies = %d/%d, want 2/4 cycles", c.LLCTagLatency, c.LLCDataLatency)
	}
	if c.DRAMLatency != 75 {
		t.Errorf("DRAM latency = %d, want 75 cycles (75 ns at 1 GHz)", c.DRAMLatency)
	}
	if c.DRAMCyclesPerLine != 13 {
		t.Errorf("DRAM occupancy = %d, want 13 cycles (64 B at 5 GB/s)", c.DRAMCyclesPerLine)
	}
	if c.HopLatency != 2 {
		t.Errorf("hop latency = %d, want 2 cycles", c.HopLatency)
	}
	if c.Replacement != ModifiedLRU {
		t.Errorf("replacement = %v, want modified-lru", c.Replacement)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Default64 must validate: %v", err)
	}
}

func TestSmall(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small must validate: %v", err)
	}
	if c.Cores != 16 || c.MeshW != 4 || c.MeshH != 4 {
		t.Errorf("Small mesh = %dx%d/%d cores", c.MeshW, c.MeshH, c.Cores)
	}
	d := Default64()
	if c.L1DLines*4 != d.L1DLines || c.LLCSliceLines*4 != d.LLCSliceLines {
		t.Error("Small caches must be 4x smaller than Table 1")
	}
	if c.L1DWays != d.L1DWays || c.LLCWays != d.LLCWays {
		t.Error("Small must keep associativities")
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		// Only the sharer-bitset bound rejects this one: the 16x8 mesh
		// covers 128 cores and every other field stays in range.
		{"more cores than the sharer bitset", func(c *Config) { c.Cores, c.MeshW, c.MeshH = 128, 16, 8 }},
		{"mesh mismatch", func(c *Config) { c.MeshW = 7 }},
		{"bad L1I ways", func(c *Config) { c.L1IWays = 5 }},
		{"zero L1D", func(c *Config) { c.L1DLines = 0 }},
		{"bad LLC geometry", func(c *Config) { c.LLCWays = 7 }},
		{"negative ackwise", func(c *Config) { c.AckwisePointers = -1 }},
		{"zero DRAM controllers", func(c *Config) { c.DRAMControllers = 0 }},
		{"too many DRAM controllers", func(c *Config) { c.DRAMControllers = 65 }},
		{"RT zero", func(c *Config) { c.RT = 0 }},
		{"classifier K too big", func(c *Config) { c.ClassifierK = 65 }},
		{"cluster does not divide", func(c *Config) { c.ClusterSize = 3 }},
		{"cluster zero", func(c *Config) { c.ClusterSize = 0 }},
		{"zero header flits", func(c *Config) { c.HeaderFlits = 0 }},
	}
	for _, m := range mutations {
		c := Default64()
		m.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate must fail", m.name)
		}
	}
}

// TestValidateRejectsCoresBeyondSharerBitset: a machine wider than the
// directory's sharer bitset fails validation up front instead of panicking
// mid-run on the first sharer above core 63.
func TestValidateRejectsCoresBeyondSharerBitset(t *testing.T) {
	c := Default64()
	c.Cores, c.MeshW, c.MeshH = 128, 16, 8
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "sharer bitset") {
		t.Fatalf("Validate() = %v, want the sharer-bitset error", err)
	}
}

func TestClone(t *testing.T) {
	c := Default64()
	d := c.Clone()
	d.RT = 8
	if c.RT != 3 {
		t.Error("Clone must not alias the original")
	}
}

func TestLLCTotalLines(t *testing.T) {
	if got := Default64().LLCTotalLines(); got != 64*4096 {
		t.Errorf("LLCTotalLines = %d, want %d (16 MB aggregate)", got, 64*4096)
	}
}

func TestClusterOf(t *testing.T) {
	c := Default64()
	c.ClusterSize = 4
	cases := []struct {
		core mem.CoreID
		want int
	}{{0, 0}, {3, 0}, {4, 1}, {63, 15}}
	for _, cs := range cases {
		if got := c.ClusterOf(cs.core); got != cs.want {
			t.Errorf("ClusterOf(%d) = %d, want %d", cs.core, got, cs.want)
		}
	}
}

func TestClusterMembers(t *testing.T) {
	c := Default64()
	c.ClusterSize = 4
	got := c.ClusterMembers(2)
	want := []mem.CoreID{8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("ClusterMembers(2) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClusterMembers(2) = %v, want %v", got, want)
		}
	}
}

func TestReplacementPolicyString(t *testing.T) {
	if PlainLRU.String() != "lru" || ModifiedLRU.String() != "modified-lru" {
		t.Error("ReplacementPolicy.String mismatch")
	}
}
