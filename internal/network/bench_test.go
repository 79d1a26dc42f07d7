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
// (header plus line), which keeps link utilization well below one. In the
// cores=N cases they depart one per cycle, in order. In the
// out-of-order/cores=N cases a quarter of them depart 100–399 cycles late,
// as a response after a DRAM access does, so later messages often depart
// before links that earlier ones reserved are free again. A Send must not
// allocate.
func BenchmarkMeshSend(b *testing.B) {
	for _, cores := range []int{16, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) { benchmarkMeshSend(b, cores, 0) })
	}
	b.Run("out-of-order", func(b *testing.B) {
		for _, cores := range []int{16, 64} {
			b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) { benchmarkMeshSend(b, cores, 4) })
		}
	})
}

// benchmarkMeshSend sends the message mix at the given core count. One
// message in lateEvery (none when 0) departs 100–399 cycles after its
// position in the sequence.
func benchmarkMeshSend(b *testing.B, cores, lateEvery int) {
	cfg, err := config.ForCores(cores)
	if err != nil {
		b.Fatal(err)
	}
	ep := energy.DefaultParams()
	m := New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, &energy.Meter{}, ep.RouterFlit, ep.LinkFlit)
	type msg struct {
		src, dst mem.CoreID
		flits    int
		late     mem.Cycles
	}
	var msgs [1024]msg
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range msgs {
		msgs[i] = msg{mem.CoreID(rng.IntN(cores)), mem.CoreID(rng.IntN(cores)), cfg.HeaderFlits + rng.IntN(2)*cfg.DataFlits, 0}
		if lateEvery > 0 && rng.IntN(lateEvery) == 0 {
			msgs[i].late = mem.Cycles(100 + rng.IntN(300))
		}
	}
	send := func(i int) mem.Cycles {
		g := &msgs[i&(len(msgs)-1)]
		return m.Send(g.src, g.dst, g.flits, mem.Cycles(i)+g.late)
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
}
