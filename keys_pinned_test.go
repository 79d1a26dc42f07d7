package lard_test

import (
	"testing"

	"lard"
)

// TestPaperSchemeKeysPinned is the refactor's regression anchor: the five
// paper schemes must produce byte-identical labels and content-addressed
// result-store keys across any rearrangement of the scheme dispatch. The
// keys below were captured from the pre-registry implementation; a
// mismatch means every previously stored result silently stops resolving —
// treat a failure as a bug in the change, never re-pin without a
// deliberate store-format migration.
func TestPaperSchemeKeysPinned(t *testing.T) {
	defaults := lard.Options{}
	scaled := lard.Options{Cores: 16, OpsScale: 0.1, Seed: 7}
	cases := []struct {
		scheme    lard.Scheme
		label     string
		benchmark string
		options   lard.Options
		key       string
	}{
		{lard.SNUCA(), "S-NUCA", "BARNES", defaults, "1758f2f4d6c080c11986f96dfe1259c67b708bec2191d9e5f7175d2458b94319"},
		{lard.SNUCA(), "S-NUCA", "RADIX", scaled, "9b0a1b2b4892d739fec0abf3bdd31f661ecc5c48281189ee5048dbe8cc1e739b"},
		{lard.RNUCA(), "R-NUCA", "BARNES", defaults, "fab25c3e42cf8638cd5fa48e8fda859ef33ef51b016335d79f0b91b38d1d8e7d"},
		{lard.RNUCA(), "R-NUCA", "RADIX", scaled, "e68a89106409982c9f832f08efb5fbe05dbdc17c793230df19fd47a4e04ce0f6"},
		{lard.VictimReplication(), "VR", "BARNES", defaults, "49731beebc7131d31bc4bb89e8cad89981350c0d32a7752a06567df089e89c09"},
		{lard.VictimReplication(), "VR", "RADIX", scaled, "4b828ea745da2a2426d84c2e8acf41270945b6de1b52173fd18c1b44e5e7d791"},
		{lard.ASR(0.5), "ASR", "BARNES", defaults, "89d6d1f8fdbf744f640679f4a810d3e12ec109690149983071cc83a40bea8541"},
		{lard.ASR(0.5), "ASR", "RADIX", scaled, "3a75bd145186a9c6cab709023dc8cd3ad1abab03dc5a6a0674f411dd4d624c87"},
		{lard.ASR(1), "ASR", "BARNES", defaults, "240469ca31e7bb1d52c84f5a2153f36f6899071aac046bdf7b47554abdacac47"},
		{lard.LocalityAware(1), "RT-1", "BARNES", defaults, "552ae47e1322020df7c12b60ba53dbbf9c001567c8fb1cef2381d10452ca2f8e"},
		{lard.LocalityAware(1), "RT-1", "RADIX", scaled, "5abc40541ff5b08c5e4529a1c2728e6b12a4b90a0c2880ebe73bf77c8b166f8d"},
		{lard.LocalityAware(3), "RT-3", "BARNES", defaults, "90c81146200df84032cdffedcc02a8909bd41d847790e401f5d7a8953aaf29cb"},
		{lard.LocalityAware(3), "RT-3", "RADIX", scaled, "4020694b727d30fbb6e473e63e05e7709eefcdd349c08fbf90f6d763d31f24d6"},
		{lard.LocalityAware(8), "RT-8", "BARNES", defaults, "3e75991a90971c92a078fa677fdde19dc37d432bbd9f849c0ac98eb174812180"},
		{lard.LocalityAware(8), "RT-8", "RADIX", scaled, "5159fa03e2b0aca52203b4412aa1d864043c0f8ac149c62d554ee2b2c6be6163"},
		// Parameter variations: cluster replication, the plain-LRU ablation
		// and the lookup oracle each fold into the address.
		{lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 4}, "RT-3", "BARNES", defaults,
			"61318def672aa89191049b7974d502eb1f7f49828db26d700a45f9f1d7f72abb"},
		{lard.Scheme{Kind: "S-NUCA", PlainLRU: true}, "S-NUCA", "BARNES", defaults,
			"6eaa95c498d9906d64885fcfd9064aad77e7aab48d4ba77b398ea6a016280fc5"},
		{lard.Scheme{Kind: "RT", RT: 3, ClassifierK: 3, ClusterSize: 1, LookupOracle: true}, "RT-3", "BARNES", defaults,
			"03809d55a215124430340cd3de0af96cc14fcfed65db51ec09cfeddf2cd2db33"},
	}
	for _, c := range cases {
		if got := c.scheme.Label(); got != c.label {
			t.Errorf("%+v Label() = %q, want %q", c.scheme, got, c.label)
		}
		key, err := lard.KeyFor(c.benchmark, c.scheme, c.options)
		if err != nil {
			t.Errorf("KeyFor(%s, %s): %v", c.benchmark, c.label, err)
			continue
		}
		if key != c.key {
			t.Errorf("KeyFor(%s, %s, %+v) = %s, want pinned %s — stored results would stop resolving",
				c.benchmark, c.label, c.options, key, c.key)
		}
	}
}

// TestFigureSchemesPinned pins the registry-derived figure columns to the
// paper's seven, in figure order, with their historical labels.
func TestFigureSchemesPinned(t *testing.T) {
	want := []string{"S-NUCA", "R-NUCA", "VR", "ASR", "RT-1", "RT-3", "RT-8"}
	got := lard.FigureSchemes()
	if len(got) != len(want) {
		t.Fatalf("FigureSchemes has %d columns, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Label() != want[i] {
			t.Errorf("column %d = %q, want %q", i, s.Label(), want[i])
		}
	}
	if got[3].ASRLevel != 0.5 {
		t.Errorf("ASR column level = %v, want the pinned 0.5", got[3].ASRLevel)
	}
}

// TestEHCKeysPinned pins the expected-hit-count scheme's label and
// content-addressed keys the way TestPaperSchemeKeysPinned pins the paper
// schemes. EHC consumes only rt, so a scheme that also sets classifier_k
// and cluster_size must address the same stored result as plain EHC-3:
// the Config is part of the key, and the parameters EHC ignores must not
// reach it.
func TestEHCKeysPinned(t *testing.T) {
	const barnesDefaults = "b32d0f205f8498e195eef999182687c320910de049c862ed56da5352f8c243bd"
	cases := []struct {
		scheme  lard.Scheme
		options lard.Options
		key     string
	}{
		{lard.ExpectedHitCount(3), lard.Options{}, barnesDefaults},
		{lard.ExpectedHitCount(3), lard.Options{Cores: 16, OpsScale: 0.1, Seed: 7},
			"7063366bd7c7483f180c806f0541deec74fea677aa69dce98cdde50da2181f6d"},
		{lard.Scheme{Kind: "EHC", RT: 3, ClassifierK: 0, ClusterSize: 4}, lard.Options{}, barnesDefaults},
	}
	for _, c := range cases {
		if got := c.scheme.Label(); got != "EHC-3" {
			t.Errorf("%+v Label() = %q, want EHC-3", c.scheme, got)
		}
		key, err := lard.KeyFor("BARNES", c.scheme, c.options)
		if err != nil {
			t.Errorf("KeyFor(BARNES, %+v): %v", c.scheme, err)
			continue
		}
		if key != c.key {
			t.Errorf("KeyFor(BARNES, %+v, %+v) = %s, want pinned %s — stored results would stop resolving",
				c.scheme, c.options, key, c.key)
		}
	}
}
