// Command lard runs one benchmark under one LLC management scheme and
// prints the §3.4 statistics: completion time with its breakdown, the
// dynamic-energy breakdown, and the L1 miss-type distribution.
//
// Usage:
//
//	lard -bench BARNES -scheme RT -rt 3 [-k 3] [-cluster 1] [-cores 64]
//	     [-scale 1.0] [-seed 0] [-asr 1.0] [-lru] [-oracle] [-runs]
//	     [-timeline-out FILE]
//
// -timeline-out attaches an epoch-resolved flight recorder to the run and
// dumps the timeline — one CSV row per epoch, one column per counter
// series — to FILE ("-" for stdout) when the run completes.
//
// The scheme kinds come from the facade's scheme table (-schemes lists
// them with their tunables); each scheme consumes only the flags its policy
// declares.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lard"
	"lard/internal/obs"
)

func main() {
	var (
		bench   = flag.String("bench", "BARNES", "benchmark name (see -list)")
		scheme  = flag.String("scheme", "RT", "scheme kind: "+strings.Join(lard.SchemeKinds(), " | "))
		rt      = flag.Int("rt", 3, "replication threshold (RT and EHC schemes)")
		k       = flag.Int("k", 3, "Limited-k classifier size, 0 = Complete (RT scheme)")
		cluster = flag.Int("cluster", 1, "replication cluster size (RT scheme)")
		asr     = flag.Float64("asr", 1.0, "ASR replication level (ASR scheme)")
		cores   = flag.Int("cores", 64, "core count (64, 16 or 4)")
		scale   = flag.Float64("scale", 1.0, "per-core operation scale")
		seed    = flag.Uint64("seed", 0, "workload seed")
		lru     = flag.Bool("lru", false, "use plain LRU LLC replacement (§4.2 ablation)")
		oracle  = flag.Bool("oracle", false, "enable the §2.3.2 lookup oracle")
		runs    = flag.Bool("runs", false, "collect the Figure-1 run-length distribution")
		list    = flag.Bool("list", false, "list benchmark names and exit")
		schemes = flag.Bool("schemes", false, "list the schemes with their tunables and exit")
		tlOut   = flag.String("timeline-out", "", "dump the run's epoch timeline as CSV to this file (\"-\" = stdout)")
	)
	flag.Parse()

	if *list {
		for _, b := range lard.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *schemes {
		for _, info := range lard.RegisteredSchemes() {
			fmt.Printf("%-8s %s\n", info.Kind, info.Description)
			for _, p := range info.Params {
				fmt.Printf("           %-14s %s\n", p.Name, p.Doc)
			}
		}
		return
	}

	s := lard.Scheme{Kind: *scheme, RT: *rt, ClassifierK: *k, ClusterSize: *cluster,
		ASRLevel: *asr, PlainLRU: *lru, LookupOracle: *oracle}
	opt := lard.Options{Cores: *cores, OpsScale: *scale, Seed: *seed, TrackRuns: *runs}
	var rec *obs.Recorder
	if *tlOut != "" {
		rec = obs.NewRecorder(0)
		opt.Observer = rec
	}
	res, err := lard.Run(*bench, s, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard:", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := dumpTimeline(rec, *tlOut); err != nil {
			fmt.Fprintln(os.Stderr, "lard:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("%s on %s (%d cores, %d memory references)\n",
		res.Scheme, res.Benchmark, *cores, res.Ops)
	fmt.Printf("completion time: %d cycles\n\n", res.CompletionCycles)

	fmt.Println("completion time breakdown (per-core average cycles):")
	printSorted(res.TimeBreakdown, func(v uint64) string { return fmt.Sprintf("%d", v) })

	fmt.Printf("\ndynamic energy: %.3f uJ\n", res.EnergyTotalPJ()/1e6)
	printSorted(res.EnergyPJ, func(v float64) string { return fmt.Sprintf("%.3f uJ", v/1e6) })

	fmt.Println("\naccess service points:")
	printSorted(res.Misses, func(v uint64) string { return fmt.Sprintf("%d", v) })

	if *runs {
		fmt.Println("\nFigure-1 run-length shares (class bucket -> fraction of LLC accesses):")
		printSorted(res.RunLengthShares, func(v float64) string { return fmt.Sprintf("%.3f", v) })
	}
}

// dumpTimeline writes the recorder's epoch timeline as CSV to path
// ("-" = stdout).
func dumpTimeline(rec *obs.Recorder, path string) error {
	view := rec.Snapshot()
	if path == "-" {
		return view.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := view.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSorted prints a map with stable key order.
func printSorted[V any](m map[string]V, format func(V) string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-22s %s\n", k, format(m[k]))
	}
}
