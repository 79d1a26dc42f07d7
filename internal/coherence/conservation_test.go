package coherence

import (
	"fmt"
	"testing"

	"lard/internal/config"
)

// TestConservation checks two bookkeeping laws on the stress traffic of
// TestSWMRUnderRandomTraffic, for every registered scheme plus the
// cluster-4 and keep-L1 variants of RT, after every 1000th access:
//
//   - replicas: Σ inserts − evictions − invalidations (− hits, for schemes
//     whose replica hit consumes the replica) equals the replicas resident
//     in the LLC slices;
//   - directory: the live-entry count equals the home lines resident.
//
// The counters feed the epoch telemetry, so a replica removal that skips
// its counter shows up as a drift here rather than as a quietly wrong
// timeline.
func TestConservation(t *testing.T) {
	type variant struct {
		name string
		opts Options
		mut  func(*config.Config)
	}
	var vs []variant
	for _, d := range Registered() {
		vs = append(vs, variant{d.Name, Options{Scheme: d.Scheme, ASRLevel: 1}, nil})
	}
	vs = append(vs,
		variant{"RT-cluster4", Options{Scheme: LocalityAware}, func(c *config.Config) { c.ClusterSize = 4 }},
		variant{"RT-keepL1", Options{Scheme: LocalityAware}, func(c *config.Config) { c.KeepL1OnReplicaEvict = true }},
	)
	for _, v := range vs {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			stress(t, v.opts, v.mut, func(e *Engine) {
				if err := conservationErr(e); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// conservationErr checks the replica and directory laws of
// TestConservation on e's current state.
func conservationErr(e *Engine) error {
	var replicas, homes uint64
	for _, tl := range e.tiles {
		tl.llc.ForEach(func(l *cacheLine) {
			if l.Meta.home() {
				homes++
			} else {
				replicas++
			}
		})
	}
	inserts, hits := e.ReplicaStats()
	evicts, invals := e.ReplicaChurn()
	var want uint64
	for c := range inserts {
		want += inserts[c]
		if e.consumeOnHit {
			want -= hits[c]
		}
	}
	want -= evicts + invals
	if replicas != want {
		return fmt.Errorf("%d replicas resident, counters say %d (inserts %v, hits %v, evictions %d, invalidations %d)",
			replicas, want, inserts, hits, evicts, invals)
	}
	if live := e.dirOcc.Live(); live != homes {
		return fmt.Errorf("directory counts %d live entries, %d home lines resident", live, homes)
	}
	return nil
}
