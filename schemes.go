package lard

import (
	"fmt"
	"slices"
	"strings"

	"lard/internal/coherence"
	"lard/internal/config"
	"lard/internal/sim"
)

// This file is the wire-level half of the scheme table: for every engine
// scheme in internal/coherence's table it maps the public Scheme shape
// (Kind string + parameters) onto the internal configuration, validates
// the parameters the policy consumes, and declares the scheme's columns in
// the paper's Figures 6-8 as wire schemes. buildConfig, ValidateScheme,
// FigureSchemes (and through it the harness's figure matrix) and the
// server's /v1/schemes endpoint are all derived from it, so a new scheme
// is one policy type and one table row in internal/coherence plus one row
// of schemeDefs here — no switch ladder edits in any layer.

// SchemeParam documents one tunable of a scheme for discovery
// (GET /v1/schemes).
type SchemeParam struct {
	// Name is the JSON field name on the Scheme wire shape.
	Name string `json:"name"`
	// Doc is a one-line description including the accepted values.
	Doc string `json:"doc"`
}

// SchemeInfo describes one scheme for discovery endpoints.
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

// schemeDef is one row of the facade's scheme table. Its wire kind is the
// engine scheme's Name.
type schemeDef struct {
	// engine is the coherence scheme this row selects.
	engine coherence.Scheme
	// params documents the consumed parameters for discovery.
	params []SchemeParam
	// example is a valid parameterization (smoke tests, discovery).
	example Scheme
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

// lookup resolves a wire kind to its table row and engine descriptor.
func lookup(kind string) (*schemeDef, coherence.Descriptor, bool) {
	for i := range schemeDefs {
		if d, _ := coherence.Describe(schemeDefs[i].engine); d.Name == kind {
			return &schemeDefs[i], d, true
		}
	}
	return nil, coherence.Descriptor{}, false
}

// defFor resolves a wire kind, with a discoverable error for unknown kinds.
func defFor(kind string) (*schemeDef, error) {
	def, _, ok := lookup(kind)
	if !ok {
		return nil, fmt.Errorf("lard: unknown scheme kind %q (registered: %s)", kind, strings.Join(SchemeKinds(), ", "))
	}
	return def, nil
}

// SchemeKinds returns the wire kinds ordered by engine scheme id (paper
// order first, later additions after).
func SchemeKinds() []string {
	kinds := make([]string, len(schemeDefs))
	for i, def := range schemeDefs {
		kinds[i] = def.engine.String()
	}
	return kinds
}

// ValidateScheme checks a wire scheme against the scheme table: the kind
// must be known and the parameters its policy consumes must be valid. It is
// the shared guard of the facade (buildConfig) and the HTTP service, so a
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

// RegisteredSchemes describes every scheme in engine order, for the
// /v1/schemes discovery endpoint and the conformance suite.
func RegisteredSchemes() []SchemeInfo {
	out := make([]SchemeInfo, len(schemeDefs))
	for i, def := range schemeDefs {
		d, _ := coherence.Describe(def.engine)
		out[i] = SchemeInfo{
			Kind:        d.Name,
			Description: d.Description,
			Params:      def.params,
			Example:     def.example,
		}
		for _, col := range def.columns {
			out[i].FigureLabels = append(out[i].FigureLabels, col.Label())
		}
	}
	return out
}

// FigureSchemes returns the scheme columns of Figures 6-8 as each table
// row declares them, in engine order. The paper reports its ASR column as
// the best of the five ASRLevels per benchmark, so a figure is a campaign
// of these schemes with AutoASR set; the ASR scheme's own level (0.5) is
// what a campaign without AutoASR runs.
func FigureSchemes() []Scheme {
	var out []Scheme
	for _, def := range schemeDefs {
		out = append(out, def.columns...)
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

// thresholdCheck validates the rt parameter of a ThresholdRT scheme: an
// unset threshold must not silently fall back to the config default while
// Label() reports "RT-0", and the counters that must reach it saturate at
// the threshold and are 8 bits wide (§2.4.1), so a larger one could never
// fire and the run would silently simulate no replication. what names the
// threshold, ctor the constructor the hint suggests, and counter the
// hardware that bounds it.
func thresholdCheck(what, ctor, counter string) func(Scheme) error {
	return func(s Scheme) error {
		if s.RT < 1 {
			return fmt.Errorf("lard: %s scheme requires a %s >= 1, got %d (did you mean %s(3)?)", s.Kind, what, s.RT, ctor)
		}
		if s.RT > maxThreshold {
			return fmt.Errorf("lard: %s scheme threshold rt must be <= %d (8-bit %s), got %d", s.Kind, maxThreshold, counter, s.RT)
		}
		return nil
	}
}

// schemeDefs is the facade's scheme table, one row per engine scheme in
// engine order; the engine-side behaviour lives in the matching
// internal/coherence/policy_*.go file.
var schemeDefs = []schemeDef{
	{
		engine:  coherence.SNUCA,
		example: SNUCA(),
		columns: []Scheme{SNUCA()},
	},
	{
		engine:  coherence.RNUCA,
		example: RNUCA(),
		columns: []Scheme{RNUCA()},
	},
	{
		engine:  coherence.VR,
		example: VictimReplication(),
		columns: []Scheme{VictimReplication()},
	},
	{
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
	},
	{
		engine: coherence.LocalityAware,
		params: []SchemeParam{
			{Name: "rt", Doc: "replication threshold, 1..255 (paper default 3)"},
			{Name: "classifier_k", Doc: "Limited-k classifier size; 0 = Complete (paper default 3)"},
			{Name: "cluster_size", Doc: "replication cluster size dividing the core count; 0 or 1 = local slice"},
		},
		example:  LocalityAware(3),
		validate: thresholdCheck("replication threshold rt", "LocalityAware", "reuse counters"),
		apply: func(s Scheme, cfg *config.Config, _ *sim.Options) {
			cfg.RT = s.RT
			cfg.ClassifierK = s.ClassifierK
			if s.ClusterSize > 0 {
				cfg.ClusterSize = s.ClusterSize
			}
		},
		columns: []Scheme{LocalityAware(1), LocalityAware(3), LocalityAware(8)},
	},
	{
		engine: coherence.ExpectedHitCount,
		params: []SchemeParam{
			{Name: "rt", Doc: "hit-count threshold, 1..255: home reads since the last write before a line replicates"},
		},
		example:  ExpectedHitCount(3),
		validate: thresholdCheck("hit-count threshold", "ExpectedHitCount", "hit counter"),
		// EHC consumes only rt: classifier_k and cluster_size stay at the
		// config defaults, so they cannot split EHC's result keys.
		apply: func(s Scheme, cfg *config.Config, _ *sim.Options) {
			cfg.RT = s.RT
		},
	},
}
