// Command lard-perf is the repository's benchmark: it runs the simulator and
// run-service workloads, prints every end-to-end and per-layer metric, checks
// every output, and compares result sets. See bench/perf/README.md.
//
//	lard-perf [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-out FILE]
//	lard-perf compare PARENT.json... -- CHANGE.json...
package main

import (
	"os"

	perf "lard/bench/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr))
}
