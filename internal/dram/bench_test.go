package dram

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
)

// BenchmarkDRAMAccess times one off-chip line transfer — controller
// selection, the bandwidth queue and the energy tally — at the 16- and
// 64-core controller layouts. Lines are a fixed pseudo-random sample,
// arriving every fourth cycle, which keeps every controller below full
// bandwidth. An access must not allocate.
func BenchmarkDRAMAccess(b *testing.B) {
	for _, cores := range []int{16, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			cfg, err := config.ForCores(cores)
			if err != nil {
				b.Fatal(err)
			}
			ep := energy.DefaultParams()
			newSub := func() *Subsystem {
				return New(cfg.DRAMControllers, cfg.Cores, cfg.DRAMLatency, cfg.DRAMCyclesPerLine, &energy.Meter{}, ep.DRAMAccess)
			}
			var lines [1024]mem.LineAddr
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range lines {
				lines[i] = mem.LineAddr(rng.Uint64() >> 6)
			}
			s := newSub()
			access := func(i int) mem.Cycles {
				return s.Access(s.ControllerFor(lines[i&(len(lines)-1)]), mem.Cycles(4*i))
			}
			if a := testing.AllocsPerRun(100, func() { access(0) }); a != 0 {
				b.Fatalf("Access allocates %.1f times per call, want 0", a)
			}
			s = newSub()
			b.ReportAllocs()
			var last mem.Cycles
			for i := 0; b.Loop(); i++ {
				last = access(i)
			}
			if last == 0 {
				b.Fatal("last access completed at cycle 0")
			}
		})
	}
}
