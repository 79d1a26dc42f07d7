package trace

import (
	"testing"

	"lard/internal/config"
)

// BenchmarkTraceGen measures per-op trace generation cost through the
// chunked Fill API the simulator uses (one Op buffer reused across refills,
// so steady-state generation is alloc-free), on the 16-core test machine
// and on the 64-core Table-1 machine.
func BenchmarkTraceGen(b *testing.B) {
	for _, m := range []struct {
		name string
		cfg  *config.Config
	}{{"cores=16", config.Small()}, {"cores=64", config.Default64()}} {
		b.Run(m.name, func(b *testing.B) {
			p, err := ProfileByName("BARNES")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]Op, 256)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for n < b.N {
				w := Generate(p, m.cfg, 1.0, 42)
				for _, s := range w.Streams {
					for n < b.N {
						got := s.Fill(buf)
						if got == 0 {
							break
						}
						n += got
					}
				}
			}
		})
	}
}
