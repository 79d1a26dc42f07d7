package perf

import (
	"testing"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/sim"
	"lard/internal/trace"
)

// TestReplayMatchesSim pins the replay driver to sim.Run: for every
// registered scheme, two seeds and benchmarks with and without barriers,
// the outcome must be identical (the same digest of sim.Result's canonical
// JSON), so a traced run can never quietly measure a different program.
func TestReplayMatchesSim(t *testing.T) {
	base, err := config.ForCores(16)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	for _, d := range coherence.Registered() {
		for _, bench := range []string{"BARNES", "DEDUP", "FLUIDANIM."} {
			prof, err := trace.ProfileByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 2} {
				cfg := *base
				if d.ThresholdRT {
					cfg.RT = 3
				}
				opt := sim.Options{Scheme: d.Scheme, Seed: seed, OpsScale: 0.02, TrackRuns: seed == 2}
				if d.Scheme == coherence.ASR {
					opt.ASRLevel = 0.5
				}
				want := sim.Run(&cfg, prof, opt)
				got := Replay(&cfg, prof, opt, rec)
				if err := sameOutcome(got, want); err != nil {
					t.Errorf("%s seed %d: %v", d.Name, seed, err)
				}
			}
		}
	}
	var accesses uint64
	for _, a := range rec.Access {
		accesses += a.Count
	}
	if accesses != rec.Ops || rec.Ops == 0 {
		t.Errorf("recorded %d access spans for %d ops", accesses, rec.Ops)
	}
}
