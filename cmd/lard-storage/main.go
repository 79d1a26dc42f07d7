// Command lard-storage reproduces the storage-overhead arithmetic of §2.4.1
// — the bits the locality-aware protocol adds to each LLC directory entry
// and the resulting per-slice costs, compared with the baseline ACKwise and
// full-map directories — and administers result-store directories.
//
// Usage:
//
//	lard-storage [-cores 64] [-rt 3] [-slicekb 256] [-ackwise 4]
//	lard-storage gc -store DIR -older-than DUR
//	                [-benchmark NAME] [-dry-run]
//
// The gc subcommand walks the store's keys and deletes entries whose
// backing files are older than -older-than (by last-modified time),
// optionally restricted to one benchmark, through the same Delete path as
// DELETE /v1/results/{key} — every layer, atomically per entry. An old
// entry that no longer decodes is deleted too, unless -benchmark is set:
// it matches no benchmark. -dry-run reports what a real sweep would
// remove without touching anything. Entries the backend cannot date are
// counted and left alone.
package main

import (
	"flag"
	"fmt"
	"os"

	"lard/internal/core"
	"lard/internal/mem"
	"lard/internal/resultstore"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gc" {
		gcMain(os.Args[2:])
		return
	}
	overheadMain()
}

// gcMain implements the gc subcommand.
func gcMain(args []string) {
	fs := flag.NewFlagSet("lard-storage gc", flag.ExitOnError)
	var (
		storeDir  = fs.String("store", "", "result store directory (required)")
		olderThan = fs.Duration("older-than", 0, "delete entries whose files are older than this (required, e.g. 720h)")
		benchmark = fs.String("benchmark", "", "restrict the sweep to one benchmark")
		dryRun    = fs.Bool("dry-run", false, "report what would be deleted without deleting")
	)
	fs.Parse(args)
	if *storeDir == "" {
		fatalGC(fmt.Errorf("-store is required (there is nothing to collect in memory)"))
	}
	if *olderThan <= 0 {
		fatalGC(fmt.Errorf("-older-than is required and must be positive (refusing to default to deleting everything)"))
	}

	st, err := resultstore.New(*storeDir)
	fatalGC(err)
	defer st.Close()

	gs, err := st.GC(*olderThan, *benchmark, *dryRun)
	fatalGC(err)
	scope := "entries"
	if *benchmark != "" {
		scope = fmt.Sprintf("%s entries", *benchmark)
	}
	verb := "deleted"
	if *dryRun {
		verb = "would delete"
	}
	fmt.Printf("lard-storage gc: scanned %d entries, %s %d %s older than %s, kept %d",
		gs.Scanned, verb, gs.Matched, scope, *olderThan, gs.Scanned-gs.Matched)
	if gs.Undatable > 0 {
		fmt.Printf(" (%d undatable, skipped)", gs.Undatable)
	}
	fmt.Println()
}

func fatalGC(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard-storage gc:", err)
		os.Exit(1)
	}
}

// overheadMain is the original §2.4.1 storage-overhead calculator.
func overheadMain() {
	var (
		cores   = flag.Int("cores", 64, "core count")
		rt      = flag.Int("rt", 3, "replication threshold")
		sliceKB = flag.Int("slicekb", 256, "LLC slice size in KB")
		ackwise = flag.Int("ackwise", 4, "ACKwise pointer count")
	)
	flag.Parse()

	lines := *sliceKB * 1024 / mem.LineBytes
	for _, k := range []int{3, 0} {
		m := core.StorageModel{
			Cores: *cores, RT: *rt, K: k,
			SliceLines: lines, AckwisePointers: *ackwise,
		}
		name := "Complete"
		if k > 0 {
			name = fmt.Sprintf("Limited-%d", k)
		}
		fmt.Printf("%s classifier (%d cores, RT=%d, %d KB slices, ACKwise-%d):\n",
			name, *cores, *rt, *sliceKB, *ackwise)
		fmt.Printf("  classifier bits per entry:   %d\n", m.ClassifierBitsPerEntry())
		fmt.Printf("  replica-reuse bits per entry: %d\n", m.ReplicaReuseBitsPerEntry())
		fmt.Printf("  replica-reuse storage:       %.1f KB per slice\n", m.ReplicaReuseKB())
		fmt.Printf("  classifier storage:          %.1f KB per slice\n", m.ClassifierKB())
		fmt.Printf("  protocol overhead:           %.1f KB per slice\n", m.ProtocolOverheadKB())
		fmt.Printf("  ACKwise-%d directory:         %.1f KB per slice\n", *ackwise, m.AckwiseKB())
		fmt.Printf("  full-map directory:          %.1f KB per slice\n", m.FullMapKB())
		fmt.Printf("  overhead vs baseline caches: %.1f%%\n\n", m.OverheadPercent())
	}
}
