package lard_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"lard"
	"lard/internal/resultstore"
)

// TestExpandCampaign pins the matrix-expansion contract: full cross
// product, per-member keys matching KeyFor, and an id that is stable under
// member reordering.
func TestExpandCampaign(t *testing.T) {
	spec := lard.CampaignSpec{
		Benchmarks: []string{"BARNES", "DEDUP"},
		Schemes:    []lard.Scheme{lard.SNUCA(), lard.LocalityAware(3)},
		Options:    lard.Options{Cores: 16, OpsScale: 0.02},
	}
	members, err := lard.ExpandCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("%d members, want 4", len(members))
	}
	want, _ := lard.KeyFor("BARNES", lard.SNUCA(), spec.Options)
	if members[0].Key != want || members[0].Label != "S-NUCA" {
		t.Fatalf("member 0 = %+v", members[0])
	}

	// The campaign id ignores member order.
	id := lard.CampaignKeyFor(members)
	rev := lard.CampaignSpec{
		Benchmarks: []string{"DEDUP", "BARNES"},
		Schemes:    []lard.Scheme{lard.LocalityAware(3), lard.SNUCA()},
		Options:    spec.Options,
	}
	revMembers, err := lard.ExpandCampaign(rev)
	if err != nil {
		t.Fatal(err)
	}
	if lard.CampaignKeyFor(revMembers) != id {
		t.Fatal("campaign id must be order-independent")
	}
	// ...but not options-independent.
	other := spec
	other.Options.Seed = 9
	otherMembers, _ := lard.ExpandCampaign(other)
	if lard.CampaignKeyFor(otherMembers) == id {
		t.Fatal("different options must give a different campaign id")
	}
}

// TestExpandCampaignDedupAndLabels verifies duplicate schemes collapse and
// colliding figure labels are made unique.
func TestExpandCampaignDedupAndLabels(t *testing.T) {
	members, err := lard.ExpandCampaign(lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.SNUCA(), lard.SNUCA(), lard.ASR(0.25), lard.ASR(0.75)},
		Options:    lard.Options{Cores: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate S-NUCA deduped; the two ASR levels are distinct runs with
	// distinguishable labels.
	if len(members) != 3 {
		t.Fatalf("%d members, want 3", len(members))
	}
	labels := make([]string, len(members))
	for i, m := range members {
		labels[i] = m.Label
	}
	got := strings.Join(labels, ",")
	if got != "S-NUCA,ASR,ASR#2" {
		t.Fatalf("labels = %q", got)
	}

	// Labels are assigned after deduplication: a dropped duplicate must not
	// leave a gap in the #n suffixes (no "ASR#3" without an "ASR#2").
	members, err = lard.ExpandCampaign(lard.CampaignSpec{
		Benchmarks: []string{"BARNES"},
		Schemes:    []lard.Scheme{lard.ASR(0.5), lard.ASR(0.5), lard.ASR(0.25)},
		Options:    lard.Options{Cores: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels = labels[:0]
	for _, m := range members {
		labels = append(labels, m.Label)
	}
	if got := strings.Join(labels, ","); got != "ASR,ASR#2" {
		t.Fatalf("labels after dedup = %q, want ASR,ASR#2", got)
	}
}

// TestExpandCampaignErrors covers invalid campaigns, including the RT-0
// misconfiguration surfacing through member validation.
func TestExpandCampaignErrors(t *testing.T) {
	if _, err := lard.ExpandCampaign(lard.CampaignSpec{Benchmarks: []string{"BARNES"}}); err == nil {
		t.Error("no schemes must error")
	}
	if _, err := lard.ExpandCampaign(lard.CampaignSpec{
		Benchmarks: []string{"NOPE"}, Schemes: []lard.Scheme{lard.SNUCA()},
	}); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := lard.ExpandCampaign(lard.CampaignSpec{
		Benchmarks: []string{"BARNES"}, Schemes: []lard.Scheme{lard.LocalityAware(0)},
	}); err == nil {
		t.Error("RT-0 member must error")
	}
}

// TestExpandCampaignDefaults pins the defaults: all 21 benchmarks, and the
// seven figure columns.
func TestExpandCampaignDefaults(t *testing.T) {
	members, err := lard.ExpandCampaign(lard.CampaignSpec{Schemes: lard.FigureSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	if want := 21 * 7; len(members) != want {
		t.Fatalf("%d members, want %d", len(members), want)
	}
	labels := map[string]bool{}
	for _, m := range members {
		labels[m.Label] = true
	}
	for _, want := range []string{"S-NUCA", "R-NUCA", "VR", "ASR", "RT-1", "RT-3", "RT-8"} {
		if !labels[want] {
			t.Errorf("figure column %q missing", want)
		}
	}
}

// TestStoredByKey round-trips a run through a store and back out by its raw
// content address.
func TestStoredByKey(t *testing.T) {
	st, err := resultstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, o := lard.LocalityAware(3), lard.Options{Cores: 16, OpsScale: 0.02}
	res, _, err := lard.RunWithStore(st, "BARNES", s, o)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := lard.KeyFor("BARNES", s, o)
	got, ok, err := lard.StoredByKey(st, key)
	if err != nil || !ok {
		t.Fatalf("StoredByKey = %v %v", ok, err)
	}
	if got.Benchmark != res.Benchmark || got.CompletionCycles != res.CompletionCycles {
		t.Fatalf("StoredByKey mismatch: %+v vs %+v", got, res)
	}
	if _, ok, err := lard.StoredByKey(st, "nope"); ok || err != nil {
		t.Fatalf("bad key = %v %v, want clean miss", ok, err)
	}
}

// TestCampaignIDPinned pins campaign ids across the AutoASR switch. A spec
// without it keeps the id it had before the switch existed, so a stored
// campaign keeps its address. The same spec with auto_asr expands the ASR
// column into its five candidates under one label, and its id is still
// independent of scheme order.
func TestCampaignIDPinned(t *testing.T) {
	spec := lard.CampaignSpec{
		Benchmarks: []string{"BARNES", "DEDUP"},
		Schemes:    lard.FigureSchemes(),
		Options:    lard.Options{Cores: 16, OpsScale: 0.05},
	}
	members, err := lard.ExpandCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "20621144750d55c73393d2c2ae531a9f3dcd988ef49556b3a5ab938a95f63a82"
	if len(members) != 14 || lard.CampaignKeyFor(members) != pinned {
		t.Fatalf("fixed-level campaign: %d members, id %s; want 14, %s", len(members), lard.CampaignKeyFor(members), pinned)
	}

	spec.AutoASR = true
	auto, err := lard.ExpandCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := lard.CampaignKeyFor(auto)
	if len(auto) != 22 || id == pinned {
		t.Fatalf("auto_asr campaign: %d members, id %s; want 22 and an id other than the fixed-level one", len(auto), id)
	}
	var asr []string
	for _, m := range auto {
		if m.Benchmark == "BARNES" && m.Scheme.Kind == "ASR" {
			if m.Label != "ASR" {
				t.Fatalf("candidate %s labelled %q, want the column's label ASR", m.Name, m.Label)
			}
			asr = append(asr, m.Name)
		}
	}
	if got := strings.Join(asr, ","); got != "ASR@0,ASR@0.25,ASR@0.5,ASR@0.75,ASR@1" {
		t.Fatalf("BARNES ASR candidates = %s", got)
	}

	// Reordering the schemes, or naming the ASR column at another level,
	// is the same auto-tuned campaign.
	spec.Schemes = slices.Clone(spec.Schemes)
	slices.Reverse(spec.Schemes)
	for i := range spec.Schemes {
		if spec.Schemes[i].Kind == "ASR" {
			spec.Schemes[i].ASRLevel = 0.25
		}
	}
	spec.Schemes = append(spec.Schemes, lard.ASR(1))
	again, err := lard.ExpandCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 22 || lard.CampaignKeyFor(again) != id {
		t.Fatalf("reordered auto_asr campaign: %d members, id %s; want 22, %s", len(again), lard.CampaignKeyFor(again), id)
	}
}

// TestReportedMembers pins the one selection rule every campaign table
// uses: the lowest energy-delay product wins an auto-tuned column, a tie
// goes to the earliest (lowest-level) candidate, and a fixed column
// reports its own member.
func TestReportedMembers(t *testing.T) {
	type run struct {
		bench, label string
		energy       float64
		cycles       uint64
	}
	cases := []struct {
		name string
		runs []run
		want []int
	}{
		{"lowest EDP wins", []run{
			{"B", "ASR", 10, 10}, {"B", "ASR", 6, 10}, {"B", "ASR", 5, 13}, {"B", "ASR", 4, 20},
		}, []int{1, 1, 1, 1}},
		// 2x6 and 3x4 are one EDP: the earlier candidate keeps the cell.
		{"tie goes to the lowest level", []run{
			{"B", "ASR", 9, 9}, {"B", "ASR", 2, 6}, {"B", "ASR", 3, 4},
		}, []int{1, 1, 1}},
		{"fixed columns pass through", []run{
			{"B", "S-NUCA", 1, 1}, {"B", "RT-3", 100, 100}, {"D", "S-NUCA", 5, 5}, {"D", "RT-3", 1, 1},
		}, []int{0, 1, 2, 3}},
		{"cells are per benchmark", []run{
			{"B", "ASR", 2, 2}, {"B", "ASR", 1, 1}, {"D", "ASR", 1, 1}, {"D", "ASR", 2, 2},
		}, []int{1, 1, 2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			members := make([]lard.CampaignMember, len(tc.runs))
			for i, r := range tc.runs {
				members[i] = lard.CampaignMember{Benchmark: r.bench, Label: r.label}
			}
			got := lard.ReportedMembers(members, func(i int) (float64, uint64) {
				return tc.runs[i].energy, tc.runs[i].cycles
			})
			if !slices.Equal(got, tc.want) {
				t.Fatalf("reported = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestEnergyTotalsAgree: the service picks an auto-tuned column's
// candidate from lard.Result.EnergyTotalPJ and the harness from
// sim.Result.EnergyTotal, so the two must be equal bit for bit on the
// same run, or local and served tables could pick different levels.
func TestEnergyTotalsAgree(t *testing.T) {
	st, err := resultstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	s, o := lard.ASR(0.5), lard.Options{Cores: 16, OpsScale: 0.02}
	internal, _, err := lard.Simulate(context.Background(), st, "BARNES", s, o)
	if err != nil {
		t.Fatal(err)
	}
	exported, ok, err := lard.LookupStored(st, "BARNES", s, o)
	if err != nil || !ok {
		t.Fatalf("LookupStored = %v %v", ok, err)
	}
	if a, b := exported.EnergyTotalPJ(), internal.EnergyTotal(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("EnergyTotalPJ = %v, EnergyTotal = %v", a, b)
	}
}
