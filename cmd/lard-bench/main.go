// Command lard-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lard-bench [-fig all|1|6|7|8|9|10|lru|oracle|headline] [-cores 64|16|4]
//	           [-scale 1.0] [-seed 0] [-breakdown BENCH] [-store DIR]
//	           [-remote URL] [-waterfall] [-timeline]
//
// With -store, every simulation is cached in a content-addressed result
// store: re-running a figure (or regenerating a different figure that
// shares runs) reuses stored results instead of re-simulating. The
// directory layout is the one lard-server -store uses, so a campaign can
// warm a server's store or vice versa.
//
// Locally, a figure matrix runs as a campaign in-process
// (harness.RunMatrix): the same expansion and the same per-benchmark pick
// of the ASR column's best level as the service. With -remote, the figure
// matrix is submitted to a running lard-server as ONE campaign (-fig 6, 7
// or all, with auto_asr set) instead of simulating locally: the service
// fans the members out over its worker pool, previously computed members
// are served from its store, and the rendered table comes back over HTTP,
// with the same rows as the local table. Status lines go to stderr, so
// stdout holds only the tables. Adding -waterfall (against a server
// started with -trace) follows the tables with each member's phase-timing
// waterfall — queue wait, the simulator's setup / trace-decode /
// coherence-loop / finalize breakdown, and the store write — pulled from
// GET /v1/runs/{id}/trace. Adding -timeline (against a server started with
// -telemetry) follows the tables with each member's epoch timeline:
// sparklines of the headline coherence series plus a warmup/steady/tail
// phase summary, pulled from GET /v1/runs/{id}/timeline. Both list each
// level of the auto-tuned ASR column as its own member ("BARNES/ASR@0.25").
//
// Each figure prints an aligned text table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lard"
	"lard/internal/harness"
	"lard/internal/resultstore"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "which figure to regenerate: all,1,6,7,8,9,10,lru,revict,oracle,headline")
		cores     = flag.Int("cores", 64, "core count (64 = Table 1, 16 or 4 = scaled down)")
		scale     = flag.Float64("scale", 1.0, "per-core operation count scale")
		seed      = flag.Uint64("seed", 0, "workload seed")
		breakdown = flag.String("breakdown", "", "also print per-component stacks for this benchmark")
		par       = flag.Int("par", 0, "parallel simulations (0 = GOMAXPROCS)")
		benchList = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		storeDir  = flag.String("store", "", "result store directory (empty = no caching)")
		remote    = flag.String("remote", "", "lard-server URL: submit the figure as one campaign instead of simulating locally")
		waterfall = flag.Bool("waterfall", false, "with -remote against a tracing server: print each member's phase-timing waterfall")
		timeline  = flag.Bool("timeline", false, "with -remote against a telemetry server: print each member's epoch-timeline sparklines")
	)
	flag.Parse()
	base := harness.Base{Cores: *cores, OpsScale: *scale, Seed: *seed, Parallelism: *par}
	if *benchList != "" {
		base.Benchmarks = strings.Split(*benchList, ",")
	}
	if *remote != "" {
		if *fig != "6" && *fig != "7" && *fig != "all" {
			fatal(fmt.Errorf("-remote supports -fig 6, 7 or all, not %q", *fig))
		}
		// Local-only flags must not be silently dropped: the server owns
		// the store and the parallelism, and the table endpoint has no
		// per-component breakdown.
		if *breakdown != "" || *storeDir != "" || *par != 0 {
			fatal(fmt.Errorf("-breakdown, -store and -par do not apply in -remote mode"))
		}
		spec := lard.CampaignSpec{
			Benchmarks: base.Benchmarks,
			Schemes:    lard.FigureSchemes(),
			Options:    lard.Options{Cores: *cores, OpsScale: *scale, Seed: *seed},
			AutoASR:    true,
		}
		fatal(remoteFigure(*remote, *fig, spec, *waterfall, *timeline))
		return
	}
	if *waterfall {
		fatal(fmt.Errorf("-waterfall requires -remote (phase timings come from the server's trace endpoint)"))
	}
	if *timeline {
		fatal(fmt.Errorf("-timeline requires -remote (epoch timelines come from the server's timeline endpoint)"))
	}
	if *storeDir != "" {
		st, err := resultstore.New(*storeDir)
		fatal(err)
		defer st.Close()
		base.Store = st
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	start := time.Now()

	var mainMatrix *harness.Matrix
	needMatrix := want("6") || want("7") || want("8") || want("headline")
	if needMatrix {
		m, err := harness.RunMatrix(base, harness.StandardVariants())
		fatal(err)
		mainMatrix = m
	}

	if want("1") {
		table, _, err := harness.Fig1RunLengths(base)
		fatal(err)
		fmt.Println(table)
	}
	if want("6") {
		table, _ := harness.Fig6Energy(mainMatrix)
		fmt.Println(table)
		if *breakdown != "" {
			fmt.Println(harness.EnergyBreakdownTable(mainMatrix, *breakdown))
		}
	}
	if want("7") {
		table, _ := harness.Fig7Time(mainMatrix)
		fmt.Println(table)
		if *breakdown != "" {
			fmt.Println(harness.TimeBreakdownTable(mainMatrix, *breakdown))
		}
	}
	if want("8") {
		fmt.Println(harness.Fig8MissTypes(mainMatrix))
	}
	if want("headline") {
		fmt.Println(harness.Headline(mainMatrix))
	}
	if want("9") {
		table, _, err := harness.Fig9LimitedK(base)
		fatal(err)
		fmt.Println(table)
	}
	if want("10") {
		table, _, err := harness.Fig10ClusterSize(base)
		fatal(err)
		fmt.Println(table)
	}
	if want("lru") {
		table, _, err := harness.ReplacementAblation(base)
		fatal(err)
		fmt.Println(table)
	}
	if want("revict") {
		table, _, err := harness.ReplicaEvictAblation(base)
		fatal(err)
		fmt.Println(table)
	}
	if want("oracle") {
		table, _, err := harness.OracleAblation(base)
		fatal(err)
		fmt.Println(table)
	}
	if s := base.StoreSummary(); s != "" {
		fmt.Fprintf(os.Stderr, "lard-bench: %s\n", s)
	}
	fmt.Fprintf(os.Stderr, "lard-bench: done in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard-bench:", err)
		os.Exit(1)
	}
}
