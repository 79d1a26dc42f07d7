package lard

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/sim"
)

// This file is the wire-level half of the replication-policy registry: for
// every engine scheme registered in internal/coherence it maps the public
// Scheme shape (Kind string + parameters) onto the internal configuration,
// validates the parameters the policy consumes, and declares the scheme's
// columns in the paper's Figures 6-8 as wire schemes. buildConfig,
// ValidateScheme, FigureSchemes (and through it the harness's figure
// matrix) and the server's /v1/schemes endpoint are all derived from it,
// so landing a new scheme means one policy file in internal/coherence plus
// one registerScheme call here — no switch ladder edits in any layer.

// SchemeParam documents one tunable of a registered scheme for discovery
// (GET /v1/schemes).
type SchemeParam struct {
	// Name is the JSON field name on the Scheme wire shape.
	Name string `json:"name"`
	// Doc is a one-line description including the accepted values.
	Doc string `json:"doc"`
}

// SchemeInfo describes one registered scheme for discovery endpoints.
type SchemeInfo struct {
	// Kind is the wire identifier (Scheme.Kind).
	Kind string `json:"kind"`
	// Description is a one-line summary of the policy.
	Description string `json:"description"`
	// Params documents the parameters the policy consumes; fields not
	// listed are ignored by this scheme.
	Params []SchemeParam `json:"params,omitempty"`
	// FigureLabels are the labels of the scheme's standard columns in the
	// paper's Figures 6-8 (empty for schemes outside the paper's matrix).
	FigureLabels []string `json:"figure_labels,omitempty"`
	// Example is a valid parameterization, ready to submit.
	Example Scheme `json:"example"`
}

// schemeDef is one facade-level scheme registration.
type schemeDef struct {
	// engine is the registered coherence scheme this kind selects.
	engine coherence.Scheme
	// params documents the consumed parameters for discovery.
	params []SchemeParam
	// example is a valid parameterization (smoke tests, discovery).
	example Scheme
	// label renders a parameterized wire scheme the way the figures caption
	// it; nil means the bare kind string.
	label func(s Scheme) string
	// validate rejects parameterizations whose silent acceptance would
	// simulate something other than what the client asked for. nil means
	// the scheme has no parameters to check.
	validate func(s Scheme) error
	// apply maps the validated wire parameters onto the configuration and
	// run options. nil means the scheme consumes no parameters.
	apply func(s Scheme, cfg *config.Config, opt *sim.Options)
	// columns are the scheme's columns in Figures 6-8, in figure order
	// (nil for schemes outside the paper's main matrix); each column's
	// header is its Label().
	columns []Scheme
}

var (
	schemeMu   sync.RWMutex
	schemeDefs = make(map[string]schemeDef)
)

// registerScheme adds the wire definition of an engine scheme. Like
// coherence.Register it panics on inconsistencies: registration runs from
// package inits, where a broken scheme table should stop the process.
func registerScheme(kind string, def schemeDef) {
	schemeMu.Lock()
	defer schemeMu.Unlock()
	d, ok := coherence.Describe(def.engine)
	if !ok {
		panic(fmt.Sprintf("lard: wire scheme %q refers to unregistered engine scheme %d", kind, def.engine))
	}
	if d.Name != kind {
		panic(fmt.Sprintf("lard: wire scheme %q must match the engine scheme name %q", kind, d.Name))
	}
	if _, dup := schemeDefs[kind]; dup {
		panic(fmt.Sprintf("lard: wire scheme %q registered twice", kind))
	}
	if def.example.Kind != kind {
		panic(fmt.Sprintf("lard: wire scheme %q example has kind %q", kind, def.example.Kind))
	}
	schemeDefs[kind] = def
}

// defFor resolves a wire kind, with a discoverable error for unknown kinds.
func defFor(kind string) (schemeDef, error) {
	schemeMu.RLock()
	def, ok := schemeDefs[kind]
	schemeMu.RUnlock()
	if !ok {
		return schemeDef{}, fmt.Errorf("lard: unknown scheme kind %q (registered: %s)", kind, kindList())
	}
	return def, nil
}

// kindList renders the registered kinds in engine order for error messages.
func kindList() string {
	return strings.Join(SchemeKinds(), ", ")
}

// SchemeKinds returns the registered wire kinds ordered by engine scheme id
// (paper order first, later additions after).
func SchemeKinds() []string {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	kinds := make([]string, 0, len(schemeDefs))
	for k := range schemeDefs {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		return schemeDefs[kinds[i]].engine < schemeDefs[kinds[j]].engine
	})
	return kinds
}

// ValidateScheme checks a wire scheme against the registry: the kind must be
// registered and the parameters its policy consumes must be valid. It is the
// shared guard of the facade (buildConfig) and the HTTP service, so a
// mislabeled or misparameterized run is rejected at every entrance.
func ValidateScheme(s Scheme) error {
	def, err := defFor(s.Kind)
	if err != nil {
		return err
	}
	if def.validate != nil {
		return def.validate(s)
	}
	return nil
}

// RegisteredSchemes describes every registered scheme in engine order, for
// the /v1/schemes discovery endpoint and the conformance suite.
func RegisteredSchemes() []SchemeInfo {
	kinds := SchemeKinds()
	out := make([]SchemeInfo, 0, len(kinds))
	for _, kind := range kinds {
		schemeMu.RLock()
		def := schemeDefs[kind]
		schemeMu.RUnlock()
		d, _ := coherence.Describe(def.engine)
		info := SchemeInfo{
			Kind:        kind,
			Description: d.Description,
			Params:      def.params,
			Example:     def.example,
		}
		for _, col := range def.columns {
			info.FigureLabels = append(info.FigureLabels, col.Label())
		}
		out = append(out, info)
	}
	return out
}

// FigureSchemes returns the scheme columns of Figures 6-8 as each
// registration declares them, in engine order. The paper reports its ASR
// column as the best of the five ASRLevels per benchmark, so a figure is a
// campaign of these schemes with AutoASR set; the ASR scheme's own level
// (0.5) is what a campaign without AutoASR runs.
func FigureSchemes() []Scheme {
	var out []Scheme
	for _, kind := range SchemeKinds() {
		schemeMu.RLock()
		out = append(out, schemeDefs[kind].columns...)
		schemeMu.RUnlock()
	}
	return out
}

// maxThreshold bounds the RT and EHC thresholds: the reuse counters that
// must reach them are 8 bits wide (§2.4.1), so a larger threshold could
// never fire — the run would silently contain no replication at all.
const maxThreshold = 255

// ASRLevels are the five replication levels the paper evaluates for ASR
// (§3.3); any other level would simulate a probability no figure labels.
var ASRLevels = []float64{0, 0.25, 0.5, 0.75, 1}

// ASRCandidates returns s at each of ASRLevels: the runs among which an
// auto-tuned ASR column (CampaignSpec.AutoASR) picks the best per
// benchmark. Any other kind is rejected, since only ASR has a replication
// level to tune.
func ASRCandidates(s Scheme) ([]Scheme, error) {
	if s.Kind != "ASR" {
		return nil, fmt.Errorf("lard: only an ASR scheme can be auto-tuned over the replication levels, got kind %q", s.Kind)
	}
	out := make([]Scheme, len(ASRLevels))
	for i, level := range ASRLevels {
		out[i] = s
		out[i].ASRLevel = level
	}
	return out, nil
}

// The five paper schemes. Each registration pairs the engine scheme with
// its wire-level parameter handling; the engine-side behaviour lives in the
// matching internal/coherence/policy_*.go file.
func init() {
	registerScheme("S-NUCA", schemeDef{
		engine:  coherence.SNUCA,
		example: SNUCA(),
		columns: []Scheme{SNUCA()},
	})
	registerScheme("R-NUCA", schemeDef{
		engine:  coherence.RNUCA,
		example: RNUCA(),
		columns: []Scheme{RNUCA()},
	})
	registerScheme("VR", schemeDef{
		engine:  coherence.VR,
		example: VictimReplication(),
		columns: []Scheme{VictimReplication()},
	})
	registerScheme("ASR", schemeDef{
		engine: coherence.ASR,
		params: []SchemeParam{
			{Name: "asr_level", Doc: "replication probability; one of 0, 0.25, 0.5, 0.75, 1"},
		},
		example: ASR(0.5),
		validate: func(s Scheme) error {
			if s.ASRLevel < 0 || s.ASRLevel > 1 {
				return fmt.Errorf("lard: ASR replication level must be within [0, 1] (one of 0, 0.25, 0.5, 0.75, 1), got %v", s.ASRLevel)
			}
			if !slices.Contains(ASRLevels, s.ASRLevel) {
				return fmt.Errorf("lard: ASR replication level %v is not a paper level (use 0, 0.25, 0.5, 0.75 or 1): the run would simulate a probability no figure labels", s.ASRLevel)
			}
			return nil
		},
		apply: func(s Scheme, _ *config.Config, opt *sim.Options) {
			opt.ASRLevel = s.ASRLevel
		},
		columns: []Scheme{ASR(0.5)},
	})
	registerScheme("RT", schemeDef{
		engine: coherence.LocalityAware,
		label:  func(s Scheme) string { return fmt.Sprintf("RT-%d", s.RT) },
		params: []SchemeParam{
			{Name: "rt", Doc: "replication threshold, 1..255 (paper default 3)"},
			{Name: "classifier_k", Doc: "Limited-k classifier size; 0 = Complete (paper default 3)"},
			{Name: "cluster_size", Doc: "replication cluster size dividing the core count; 0 or 1 = local slice"},
		},
		example: LocalityAware(3),
		validate: func(s Scheme) error {
			// An unset threshold must not silently fall back to the config
			// default while Label() reports "RT-0" — that mislabels every
			// downstream table and store entry.
			if s.RT < 1 {
				return fmt.Errorf("lard: RT scheme requires a replication threshold rt >= 1, got %d (did you mean LocalityAware(3)?)", s.RT)
			}
			if s.RT > maxThreshold {
				// The hardware reuse counters saturate at the threshold and
				// are 8 bits wide (§2.4.1); a larger threshold could never
				// fire and would silently simulate no replication.
				return fmt.Errorf("lard: RT scheme threshold rt must be <= %d (8-bit reuse counters), got %d", maxThreshold, s.RT)
			}
			return nil
		},
		apply: func(s Scheme, cfg *config.Config, _ *sim.Options) {
			cfg.RT = s.RT
			cfg.ClassifierK = s.ClassifierK
			if s.ClusterSize > 0 {
				cfg.ClusterSize = s.ClusterSize
			}
		},
		columns: []Scheme{LocalityAware(1), LocalityAware(3), LocalityAware(8)},
	})
}
