package harness_test

import (
	"slices"
	"testing"

	"lard"
	"lard/internal/harness"
	"lard/internal/resultstore"
)

// TestFigureKeysMatchFacade pins the campaign/server store sharing: every
// simulation a harness figure runs lands in the store under exactly the
// key lard.KeyFor gives the equivalent wire scheme, so a local campaign
// can warm a server's store and vice versa. Each figure runs on one
// benchmark against a fresh memory store; the set of stored keys must
// equal the set of facade keys of the figure's columns.
func TestFigureKeysMatchFacade(t *testing.T) {
	const bench = "BARNES"
	opts := lard.Options{Cores: 16, OpsScale: 0.02, Seed: 1}
	rt3 := lard.LocalityAware(3)
	with := func(mod func(*lard.Scheme)) lard.Scheme {
		s := rt3
		mod(&s)
		return s
	}
	standard := []lard.Scheme{lard.SNUCA(), lard.RNUCA(), lard.VictimReplication()}
	for _, level := range []float64{0, 0.25, 0.5, 0.75, 1} {
		standard = append(standard, lard.ASR(level))
	}
	standard = append(standard, lard.LocalityAware(1), rt3, lard.LocalityAware(8))

	var fig9 []lard.Scheme
	for _, k := range []int{1, 3, 5, 7, 0} {
		fig9 = append(fig9, with(func(s *lard.Scheme) { s.ClassifierK = k }))
	}
	var fig10 []lard.Scheme
	for _, c := range []int{1, 2, 4, 16} {
		fig10 = append(fig10, with(func(s *lard.Scheme) { s.ClusterSize = c }))
	}
	tracked := opts
	tracked.TrackRuns = true

	cases := []struct {
		name    string
		schemes []lard.Scheme
		opts    lard.Options
		run     func(harness.Base) error
	}{
		{"standard", standard, opts, func(b harness.Base) error {
			_, err := harness.RunMatrix(b, harness.StandardVariants())
			return err
		}},
		{"fig1", []lard.Scheme{lard.SNUCA()}, tracked, func(b harness.Base) error {
			_, _, err := harness.Fig1RunLengths(b)
			return err
		}},
		{"fig9", fig9, opts, func(b harness.Base) error {
			_, _, err := harness.Fig9LimitedK(b)
			return err
		}},
		{"fig10", fig10, opts, func(b harness.Base) error {
			_, _, err := harness.Fig10ClusterSize(b)
			return err
		}},
		{"replacement", []lard.Scheme{rt3,
			with(func(s *lard.Scheme) { s.PlainLRU = true }),
			with(func(s *lard.Scheme) { s.TLH = true }),
		}, opts, func(b harness.Base) error {
			_, _, err := harness.ReplacementAblation(b)
			return err
		}},
		{"replica-evict", []lard.Scheme{rt3,
			with(func(s *lard.Scheme) { s.KeepL1OnReplicaEvict = true }),
		}, opts, func(b harness.Base) error {
			_, _, err := harness.ReplicaEvictAblation(b)
			return err
		}},
		{"oracle", []lard.Scheme{rt3,
			with(func(s *lard.Scheme) { s.LookupOracle = true }),
		}, opts, func(b harness.Base) error {
			_, _, err := harness.OracleAblation(b)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, s := range tc.schemes {
				key, err := lard.KeyFor(bench, s, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", s.Label(), err)
				}
				want = append(want, key)
			}
			slices.Sort(want)
			want = slices.Compact(want)

			st, err := resultstore.New("")
			if err != nil {
				t.Fatal(err)
			}
			base := harness.Base{Cores: opts.Cores, OpsScale: opts.OpsScale, Seed: opts.Seed,
				Benchmarks: []string{bench}, Store: st}
			if err := tc.run(base); err != nil {
				t.Fatal(err)
			}
			got, err := st.Keys()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("harness stored %d keys, facade derives %d:\n got  %v\n want %v",
					len(got), len(want), got, want)
			}
		})
	}
}
