package lard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"lard/internal/sim"
)

// goldenCases is the (profile, config, seed) grid the golden suite runs for
// every registered scheme. Three profiles with very different sharing
// behavior (replication winner, shared-read-only heavy, low-reuse
// streaming), two core counts, distinct seeds — small enough to run on
// every `go test`, varied enough that an optimization which perturbs any
// simulated outcome trips at least one cell.
var goldenCases = []struct {
	bench string
	cores int
	seed  uint64
}{
	{"BARNES", 16, 0},
	{"PATRICIA", 4, 7},
	{"CONCOMP", 16, 3},
}

// goldenHashes pins SHA-256 over the canonical JSON of the full internal
// sim.Result — completion time, time and energy breakdowns, miss counts,
// run-length histogram, page reclassifications — for every grid cell.
//
// These hashes are the repo's byte-identical-outcomes contract: performance
// work on the simulator core must never change a single one. If a hash
// mismatches, the optimization changed simulated behavior — fix the code,
// do not re-pin. (Re-pinning is reserved for deliberate model changes, via
// `go test -run TestGoldenResults -golden-regen`-style regeneration: set
// LARD_GOLDEN_REGEN=1 and copy the emitted table.)
var goldenHashes = map[string]string{
	"S-NUCA/BARNES/c16/s0":  "5c709150602c1c5a1b0ef3295286201cd9ef163cd288c0ee3fc5d809e6808a35",
	"S-NUCA/PATRICIA/c4/s7": "bd58054396f6e1af009e0a26016b14f55300402e7e8dc0d6ac0cdae5b6747430",
	"S-NUCA/CONCOMP/c16/s3": "08fe6a80b709b1c0d94b0f680da05fd1f4b473d571f0bfdc66ddd8b6c00c9c37",
	"R-NUCA/BARNES/c16/s0":  "51c613984c428ee21cd337859fd84fff13f17ce15dd02120d1d2bc4b6357aac3",
	"R-NUCA/PATRICIA/c4/s7": "824470711730d838144ed4bff91c9e5e6a66e8e7b555893522ee972efe06e3d7",
	"R-NUCA/CONCOMP/c16/s3": "a2a961b11623390010dafb31f599bd7886d3bf5350c5df4fd65710111828f0ab",
	"VR/BARNES/c16/s0":      "991d05f2547b2c1ed712694ae1319efe1c00a29666fdcab4ab68b963a255a3cf",
	"VR/PATRICIA/c4/s7":     "0cc7cedeb56c9ede3d8b8152ab7a0a6a9eb27579fc54b456468edb41f5995f81",
	"VR/CONCOMP/c16/s3":     "5fef20c3c4324be942353967614a03ce0ea71c8e16b1bce80269103fa717aef6",
	"ASR/BARNES/c16/s0":     "02839946a1b052368c742cd946db3ecad4b9e7517e76450faf45a98d1abe747e",
	"ASR/PATRICIA/c4/s7":    "29b060a07e00c819d8a6dec91b3fb8aaf05a241655902d100b3f974d3ed7e956",
	"ASR/CONCOMP/c16/s3":    "d600afdcb1a1628f2e56ecab9d748e260fe07f9318f8cb8ccc2aaee8d9a1b7ea",
	"RT/BARNES/c16/s0":      "f89f18ed971fdf275835d9b57326a31636f8e6bc7ceb3dba3afae96240232f8d",
	"RT/PATRICIA/c4/s7":     "740abc60e1375bbc49f35df255989763407104db3c607a1ac980dfd1edaa2d3f",
	"RT/CONCOMP/c16/s3":     "7f7b09674ea1462875a5b5c10cc9f379c103d2c96ebbac9479a6f825de34bc3e",
	"EHC/BARNES/c16/s0":     "25c792510d2ddb433386f2fb5d8a9416e59a8333d5a962837053bc229737ed3b",
	"EHC/PATRICIA/c4/s7":    "dad8d158118c4da9cc3a6a72da6e698d4f91f57f491c674e0106ff914ac9ed4c",
	"EHC/CONCOMP/c16/s3":    "ad74c57c9ff3d4fec7c6abbebad54c3af0da0262377a34d95d9989d2df024f92",
}

// goldenHash canonicalizes one result: the struct's JSON encoding (field
// order fixed by the struct definition, float formatting fixed by
// encoding/json) hashed with SHA-256.
func goldenHash(t *testing.T, r *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResults runs the grid for every registered scheme and compares
// each full sim.Result hash against the pinned table. It never skips (no
// -short carve-out): CI's analyze job greps for its presence in the test
// output, so filtering it out fails the build.
func TestGoldenResults(t *testing.T) {
	regen := os.Getenv("LARD_GOLDEN_REGEN") != ""
	seen := make(map[string]bool, len(goldenHashes))
	for _, info := range RegisteredSchemes() {
		for _, gc := range goldenCases {
			name := fmt.Sprintf("%s/%s/c%d/s%d", info.Kind, gc.bench, gc.cores, gc.seed)
			scheme, gc := info.Example, gc
			t.Run(name, func(t *testing.T) {
				prof, cfg, opt, _, err := plan(gc.bench, scheme, Options{
					Cores:     gc.cores,
					OpsScale:  0.02,
					Seed:      gc.seed,
					TrackRuns: true,
				})
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				res := sim.Run(cfg, prof, opt)
				if res == nil {
					t.Fatal("sim.Run returned nil without an interrupt")
				}
				got := goldenHash(t, res)
				if regen {
					fmt.Printf("\t%q: %q,\n", name, got)
					return
				}
				want, ok := goldenHashes[name]
				if !ok {
					t.Fatalf("no pinned hash for %s — regenerate with LARD_GOLDEN_REGEN=1", name)
				}
				seen[name] = true
				if got != want {
					t.Errorf("simulated outcome changed:\n  pinned %s\n  got    %s", want, got)
				}
				// Inter-run isolation: parallelism lives between runs (the
				// matrix's -parallel, the server's worker pool), so the same
				// cell simulated by n concurrent workers sharing one config
				// must hash to the pin in every copy. Sub-tests of the same
				// test binary on purpose: CI's filter guard greps for
				// TestGoldenResults in the output, and these must never be
				// filterable separately from the pin they check.
				for _, workers := range []int{2, 4} {
					t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
						results := make([]*sim.Result, workers)
						var wg sync.WaitGroup
						for i := range results {
							wg.Add(1)
							go func() {
								defer wg.Done()
								results[i] = sim.Run(cfg, prof, opt)
							}()
						}
						wg.Wait()
						for i, r := range results {
							if r == nil {
								t.Fatal("sim.Run returned nil without an interrupt")
							}
							if h := goldenHash(t, r); h != want {
								t.Errorf("concurrent run %d of %d diverged from pinned outcome:\n  pinned %s\n  got    %s", i, workers, want, h)
							}
						}
					})
				}
			})
		}
	}
	if regen {
		t.Skip("regeneration mode: hashes printed, nothing asserted")
	}
	for name := range goldenHashes {
		if !seen[name] {
			t.Errorf("pinned hash %s matches no grid cell — stale entry", name)
		}
	}
}
