package lard_test

import (
	"testing"

	"lard"
	"lard/internal/coherence"
)

// TestSchemeTable checks the facade's scheme table against the engine's:
// one wire row per engine scheme, in engine order, each with an example of
// its own kind that validates. The threshold schemes keep their own
// wording and constructor hint in the errors a client sees.
func TestSchemeTable(t *testing.T) {
	engine := coherence.Registered()
	infos := lard.RegisteredSchemes()
	if len(infos) != len(engine) {
		t.Fatalf("%d wire schemes for %d engine schemes", len(infos), len(engine))
	}
	for i, info := range infos {
		if info.Kind != engine[i].Name {
			t.Errorf("wire scheme %d is %q, want the engine's %q", i, info.Kind, engine[i].Name)
		}
		if info.Example.Kind != info.Kind {
			t.Errorf("scheme %q example has kind %q", info.Kind, info.Example.Kind)
		}
		if err := lard.ValidateScheme(info.Example); err != nil {
			t.Errorf("scheme %q example does not validate: %v", info.Kind, err)
		}
	}
	for _, c := range []struct {
		s    lard.Scheme
		want string
	}{
		{lard.LocalityAware(0), "lard: RT scheme requires a replication threshold rt >= 1, got 0 (did you mean LocalityAware(3)?)"},
		{lard.LocalityAware(256), "lard: RT scheme threshold rt must be <= 255 (8-bit reuse counters), got 256"},
		{lard.ExpectedHitCount(-1), "lard: EHC scheme requires a hit-count threshold >= 1, got -1 (did you mean ExpectedHitCount(3)?)"},
		{lard.ExpectedHitCount(256), "lard: EHC scheme threshold rt must be <= 255 (8-bit hit counter), got 256"},
		{lard.Scheme{Kind: "NOPE"}, `lard: unknown scheme kind "NOPE" (registered: S-NUCA, R-NUCA, VR, ASR, RT, EHC)`},
	} {
		if err := lard.ValidateScheme(c.s); err == nil || err.Error() != c.want {
			t.Errorf("ValidateScheme(%+v) = %v, want %q", c.s, err, c.want)
		}
	}
}
