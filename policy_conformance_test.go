package lard_test

import (
	"testing"

	"lard"
)

// TestPolicyConformance is the scheme table's contract suite: every
// scheme — current and future — must satisfy it without scheme-specific
// carve-outs. For each scheme it checks the metadata (unique kind,
// unique label, a validating example), the content addressing (stable keys,
// distinct across schemes), and the protocol itself: the example runs over
// a smoke workload with the SWMR and inclusion invariant checker on, through
// the exact facade path the HTTP service uses.
func TestPolicyConformance(t *testing.T) {
	schemes := lard.RegisteredSchemes()
	if len(schemes) < 6 {
		t.Fatalf("scheme table has %d schemes, want the five paper schemes plus EHC", len(schemes))
	}
	opts := lard.Options{Cores: 16, OpsScale: 0.02, CheckInvariants: true}

	kinds := make(map[string]bool, len(schemes))
	labels := make(map[string]string, len(schemes))
	keys := make(map[string]string, len(schemes))
	for _, info := range schemes {
		info := info
		t.Run(info.Kind, func(t *testing.T) {
			if kinds[info.Kind] {
				t.Fatalf("kind %q listed twice", info.Kind)
			}
			kinds[info.Kind] = true

			s := info.Example
			label := s.Label()
			if label == "" {
				t.Fatal("example renders an empty label")
			}
			if prev, dup := labels[label]; dup {
				t.Fatalf("label %q produced by both %q and %q", label, prev, info.Kind)
			}
			labels[label] = info.Kind

			if err := lard.ValidateScheme(s); err != nil {
				t.Fatalf("example does not validate: %v", err)
			}
			k1, err := lard.KeyFor("BARNES", s, opts)
			if err != nil {
				t.Fatalf("KeyFor: %v", err)
			}
			k2, err := lard.KeyFor("BARNES", s, opts)
			if err != nil || k1 != k2 {
				t.Fatalf("content address is not stable: %s vs %s (%v)", k1, k2, err)
			}
			if prev, dup := keys[k1]; dup {
				t.Fatalf("key %s produced by both %q and %q — two schemes alias one store entry", k1, prev, info.Kind)
			}
			keys[k1] = info.Kind

			// The invariant checker panics inside the engine on any SWMR or
			// inclusion violation, so a clean return is the assertion.
			res, err := lard.Run("BARNES", s, opts)
			if err != nil {
				t.Fatalf("smoke run: %v", err)
			}
			if res.Scheme != label {
				t.Errorf("run label %q != scheme label %q", res.Scheme, label)
			}
			if res.Ops == 0 || res.CompletionCycles == 0 {
				t.Errorf("smoke run did no work: %+v", res)
			}
		})
	}
}

// TestASRLevelValidationFacade pins the facade-side misconfiguration guard:
// levels outside [0,1] and unlabeled in-range probabilities are rejected on
// every store-addressed path, exactly like the RT-threshold guard.
func TestASRLevelValidationFacade(t *testing.T) {
	for _, level := range []float64{-1, -0.001, 1.01, 42, 0.3, 0.999} {
		s := lard.ASR(level)
		if _, err := lard.Run("BARNES", s, lard.Options{Cores: 16, OpsScale: 0.02}); err == nil {
			t.Errorf("Run with ASR level %v must error", level)
		}
		if _, err := lard.KeyFor("BARNES", s, lard.Options{Cores: 16}); err == nil {
			t.Errorf("KeyFor with ASR level %v must error", level)
		}
	}
	for _, level := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if _, err := lard.KeyFor("BARNES", lard.ASR(level), lard.Options{Cores: 16}); err != nil {
			t.Errorf("paper level %v rejected: %v", level, err)
		}
	}
}

// TestThresholdUpperBound: the RT and EHC reuse/hit counters are 8 bits
// (§2.4.1), so a threshold above 255 could never fire — the run would
// silently contain no replication under an RT-N/EHC-N label. Rejected.
func TestThresholdUpperBound(t *testing.T) {
	for _, s := range []lard.Scheme{lard.LocalityAware(256), lard.ExpectedHitCount(300)} {
		if _, err := lard.KeyFor("BARNES", s, lard.Options{Cores: 16}); err == nil {
			t.Errorf("threshold %d on %q must error", s.RT, s.Kind)
		}
	}
	for _, s := range []lard.Scheme{lard.LocalityAware(255), lard.ExpectedHitCount(255)} {
		if _, err := lard.KeyFor("BARNES", s, lard.Options{Cores: 16}); err != nil {
			t.Errorf("threshold 255 on %q rejected: %v", s.Kind, err)
		}
	}
}
