package network

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"lard/internal/config"
	"lard/internal/energy"
	"lard/internal/mem"
)

// BenchmarkMeshSend times one Send — X-Y routing, the per-link
// reservations and the energy tally — at the 16- and 64-core mesh
// geometries. Messages are a fixed pseudo-random mix of source and
// destination tiles, half control (header flits only) and half data
// (header plus line), departing one per cycle, which keeps link
// utilization well below one. A Send must not allocate.
func BenchmarkMeshSend(b *testing.B) {
	for _, cores := range []int{16, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			cfg, err := config.ForCores(cores)
			if err != nil {
				b.Fatal(err)
			}
			ep := energy.DefaultParams()
			m := New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, &energy.Meter{}, ep.RouterFlit, ep.LinkFlit)
			type msg struct {
				src, dst mem.CoreID
				flits    int
			}
			var msgs [1024]msg
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range msgs {
				msgs[i] = msg{mem.CoreID(rng.IntN(cores)), mem.CoreID(rng.IntN(cores)), cfg.HeaderFlits + rng.IntN(2)*cfg.DataFlits}
			}
			send := func(i int) mem.Cycles {
				g := &msgs[i&(len(msgs)-1)]
				return m.Send(g.src, g.dst, g.flits, mem.Cycles(i))
			}
			if a := testing.AllocsPerRun(100, func() { send(0) }); a != 0 {
				b.Fatalf("Send allocates %.1f times per call, want 0", a)
			}
			m = New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, &energy.Meter{}, ep.RouterFlit, ep.LinkFlit)
			b.ReportAllocs()
			var last mem.Cycles
			for i := 0; b.Loop(); i++ {
				last = send(i)
			}
			if last == 0 {
				b.Fatal("last message arrived at cycle 0")
			}
		})
	}
}
