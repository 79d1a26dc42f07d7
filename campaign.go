package lard

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"lard/internal/resultstore"
)

// campaignKeyVersion is folded into every campaign id so future changes to
// member addressing can never alias old campaigns.
const campaignKeyVersion = "lard-campaign-v1"

// CampaignSpec describes a whole benchmark x scheme matrix — one figure's
// worth of runs — using the same wire types as a single run request. An
// empty Benchmarks list selects all 21 paper benchmarks; Options apply to
// every member.
type CampaignSpec struct {
	Benchmarks []string `json:"benchmarks,omitempty"`
	Schemes    []Scheme `json:"schemes"`
	Options    Options  `json:"options"`
	// AutoASR reports each ASR column the way the paper does (§3.3): as
	// the best of the five ASRLevels per benchmark by energy-delay
	// product. The column runs all five ASRCandidates under its one label
	// and ReportedMembers picks among them; an ASR scheme's own level is
	// ignored, so ASR schemes that differ only in level are one column.
	AutoASR bool `json:"auto_asr,omitempty"`
}

// CampaignMember is one expanded (benchmark, scheme) run of a campaign,
// carrying its canonical content address and the column label it renders
// under. The candidates of an auto-tuned ASR column share their column's
// label; Name tells them apart ("ASR@0.25") and equals Label otherwise.
type CampaignMember struct {
	Benchmark string
	Scheme    Scheme
	Label     string
	Name      string
	Options   Options
	Key       string
}

// ExpandCampaign expands a campaign into its member runs: the cross product
// of benchmarks and columns, each run validated and content-addressed
// through the exact same path as a single run. A column is one scheme, or
// under AutoASR an ASR scheme's five candidates. Members whose content
// address coincides (duplicate scheme entries) are deduplicated, keeping
// the first occurrence, so a campaign never simulates one run twice.
// Column labels are made unique ("ASR", "ASR#2") so distinct schemes
// sharing a figure label stay distinguishable in tables.
func ExpandCampaign(c CampaignSpec) ([]CampaignMember, error) {
	if len(c.Schemes) == 0 {
		return nil, errors.New("lard: campaign has no schemes")
	}
	benches := c.Benchmarks
	if len(benches) == 0 {
		benches = Benchmarks()
	}

	// Dedup columns first: two columns denote the same runs for every
	// benchmark exactly when their first runs share a content address for
	// one, so probing against the first benchmark identifies duplicates.
	// Labels are assigned after deduplication — a dropped duplicate must
	// not leave a gap in the "#n" suffixes of the surviving columns.
	var cols [][]Scheme
	seenCol := make(map[string]bool, len(c.Schemes))
	for _, s := range c.Schemes {
		col := []Scheme{s}
		key, err := KeyFor(benches[0], s, c.Options)
		if cands, notASR := ASRCandidates(s); err == nil && c.AutoASR && notASR == nil {
			col = cands
			key, err = KeyFor(benches[0], col[0], c.Options)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign member %s/%s: %w", benches[0], s.Label(), err)
		}
		if seenCol[key] {
			continue
		}
		seenCol[key] = true
		cols = append(cols, col)
	}
	labels := make([]string, len(cols))
	labelUses := make(map[string]int, len(cols))
	for i, col := range cols {
		l := col[0].Label()
		labelUses[l]++
		if n := labelUses[l]; n > 1 {
			l = fmt.Sprintf("%s#%d", l, n)
		}
		labels[i] = l
	}

	seen := make(map[string]bool)
	var members []CampaignMember
	for _, b := range benches {
		for i, col := range cols {
			for _, s := range col {
				key, err := KeyFor(b, s, c.Options)
				if err != nil {
					return nil, fmt.Errorf("campaign member %s/%s: %w", b, labels[i], err)
				}
				if seen[key] { // duplicate benchmark entries dedup whole rows
					continue
				}
				seen[key] = true
				name := labels[i]
				if len(col) > 1 {
					name = fmt.Sprintf("%s@%g", labels[i], s.ASRLevel)
				}
				members = append(members, CampaignMember{
					Benchmark: b, Scheme: s, Label: labels[i], Name: name, Options: c.Options, Key: key,
				})
			}
		}
	}
	return members, nil
}

// ReportedMembers applies a campaign's one selection rule: for each member
// it returns the index of the member that the member's (benchmark, column)
// cell reports. A column with one run per benchmark reports that run. An
// auto-tuned ASR column reports the candidate with the lowest energy-delay
// product — total energy times completion cycles, the paper's §3.3 metric
// — and a tie goes to the earliest candidate, the lowest level. measure
// returns member i's total energy in pJ and its completion cycles.
func ReportedMembers(members []CampaignMember, measure func(i int) (energyPJ float64, cycles uint64)) []int {
	edp := func(i int) float64 {
		energy, cycles := measure(i)
		return energy * float64(cycles)
	}
	type cell struct{ bench, label string }
	best := make(map[cell]int, len(members))
	for i, m := range members {
		c := cell{m.Benchmark, m.Label}
		if j, ok := best[c]; !ok || edp(i) < edp(j) {
			best[c] = i
		}
	}
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = best[cell{m.Benchmark, m.Label}]
	}
	return out
}

// CampaignKeyFor returns the campaign's content address: a hex SHA-256 over
// the sorted (member key, column label) pairs. Two campaigns share an id
// exactly when they expand to the same set of runs under the same labels:
// reordering benchmarks or schemes does not change the id, but two schemes
// that share a figure label (and therefore get order-dependent "#n"
// suffixes) form distinct campaigns when submitted in different orders —
// a client can never attach to a campaign whose columns are labeled
// differently than its own submission would be.
func CampaignKeyFor(members []CampaignMember) string {
	pairs := make([]string, len(members))
	for i, m := range members {
		pairs[i] = m.Key + "\x00" + m.Label
	}
	sort.Strings(pairs)
	h := sha256.New()
	h.Write([]byte(campaignKeyVersion))
	for _, p := range pairs {
		h.Write([]byte{'\n'})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StoredByKey returns the stored result whose content address is key, if
// the store holds one. It is the polling fallback for ids that outlived a
// server's job registry: the registry forgets, the store does not.
func StoredByKey(st *resultstore.Store, key string) (*Result, bool, error) {
	res, _, ok, err := st.GetByKey(key)
	if err != nil || !ok {
		return nil, false, err
	}
	return export(res), true, nil
}
