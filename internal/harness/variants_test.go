package harness

import (
	"testing"

	"lard"
)

// TestStandardVariantsPinned pins the registry-declared figure columns to
// the paper's seven, in figure order with their exact parameterization: a
// scheme registration must never be able to silently reshuffle Figures 6-8.
func TestStandardVariantsPinned(t *testing.T) {
	want := []Variant{
		{Label: "S-NUCA", Scheme: lard.Scheme{Kind: "S-NUCA"}},
		{Label: "R-NUCA", Scheme: lard.Scheme{Kind: "R-NUCA"}},
		{Label: "VR", Scheme: lard.Scheme{Kind: "VR"}},
		{Label: "ASR", Scheme: lard.Scheme{Kind: "ASR", ASRLevel: 0.5}, AutoASR: true},
		{Label: "RT-1", Scheme: lard.Scheme{Kind: "RT", RT: 1, ClassifierK: 3, ClusterSize: 1}},
		{Label: "RT-3", Scheme: lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1}},
		{Label: "RT-8", Scheme: lard.Scheme{Kind: "RT", RT: 8, ClassifierK: 3, ClusterSize: 1}},
	}
	got := StandardVariants()
	if len(got) != len(want) {
		t.Fatalf("StandardVariants has %d columns, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("column %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestUnregisteredVariantRejected: a variant naming an unregistered scheme
// errors instead of silently simulating S-NUCA-like behaviour.
func TestUnregisteredVariantRejected(t *testing.T) {
	base := Base{Cores: 16, OpsScale: 0.02}
	_, err := Run(base, "DEDUP", Variant{Label: "nope", Scheme: lard.Scheme{Kind: "nope"}})
	if err == nil {
		t.Fatal("unregistered scheme variant must error")
	}
}
