package coherence

// Scheme identifies a coherence policy.
type Scheme uint8

const (
	Baseline Scheme = iota
	LocalityAware
)

// pick lives inside the registry: branching on schemes here is the
// registry's job and must not be flagged.
func pick(s Scheme) string {
	switch s {
	case LocalityAware:
		return "rt"
	}
	if s == Baseline {
		return "baseline"
	}
	return "unknown"
}
