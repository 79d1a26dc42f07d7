package coherence

import (
	"testing"

	"lard/internal/config"
	"lard/internal/mem"
)

// fuzzConfig is the 4-core machine with caches cut to a few sets (2-set
// L1s, 2-set LLC slices), so short op streams already evict, replicate,
// overflow and recycle. The header byte picks the protocol variant: each
// bit switches one option the paper evaluates, and every scheme ignores
// the options it does not use.
func fuzzConfig(header byte) *config.Config {
	cfg, err := config.ForCores(4)
	if err != nil {
		panic(err)
	}
	cfg.L1ILines, cfg.L1DLines, cfg.LLCSliceLines = 8, 8, 16
	cfg.TLHPeriod = 2
	if header&1 != 0 {
		cfg.ClusterSize = 2
	}
	if header&2 != 0 {
		cfg.KeepL1OnReplicaEvict = true
	}
	if header&4 != 0 {
		cfg.AckwisePointers = 1 // a second sharer overflows to broadcast
	}
	cfg.Replacement = []config.ReplacementPolicy{config.ModifiedLRU, config.PlainLRU, config.TLHLRU}[(header>>3)%4%3]
	if header&32 != 0 {
		cfg.LookupOracle = true
	}
	if header&64 != 0 {
		cfg.ClassifierK = 0
	}
	if header&128 != 0 {
		cfg.RT = 1
	}
	return cfg
}

// fuzzOp decodes one access from two bytes. b0 picks the core (low two
// bits) and the access type; b1 picks the line from a small pool: 16
// instruction lines, 16 lines of a per-core page, or 32 shared lines, each
// pool within its own pages, so instruction and data pages never mix. A
// per-core page is the requester's own unless bit 5 of b1 picks the next
// core's, whose first foreign touch makes R-NUCA reclassify the page and
// flush its lines from the owner's slice.
func fuzzOp(b0, b1 byte) (mem.CoreID, Op) {
	c := mem.CoreID(b0 & 3)
	typ := []mem.AccessType{mem.Load, mem.Load, mem.Store, mem.IFetch}[(b0>>2)&3]
	switch b1 >> 6 {
	case 0:
		return c, Op{Type: mem.IFetch, Line: mem.LineAddr(0x10000 + int(b1&15)), Class: mem.ClassInstruction}
	case 1:
		if typ == mem.IFetch {
			typ = mem.Load
		}
		owner := c
		if b1&32 != 0 {
			owner = (c + 1) & 3
		}
		return c, Op{Type: typ, Line: mem.LineAddr(0x20000 + int(owner)*0x1000 + int(b1&15)), Class: mem.ClassPrivate}
	default:
		if typ == mem.IFetch {
			typ = mem.Load
		}
		return c, Op{Type: typ, Line: mem.LineAddr(0x30000 + int(b1&31)), Class: mem.ClassSharedRW}
	}
}

// FuzzCoherenceOps decodes a byte string into a header byte and an op
// stream, and runs it on every registered scheme with CheckInvariants on:
// the SWMR version check, the home-stamp oracle and the home back-handle
// cross-check panic inside the engine on a violation. After the stream
// the replica and directory conservation laws must hold. The engine is
// advanced to the earliest core clock after each access, as the simulator
// advances it, so stamp spilling is exercised too.
func FuzzCoherenceOps(f *testing.F) {
	f.Add([]byte{0, 0x04, 0x80, 0x05, 0x80, 0x0a, 0x80, 0x04, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxOps = 1024
		header, ops := data[0], data[1:]
		if len(ops) > 2*maxOps {
			ops = ops[:2*maxOps]
		}
		for _, d := range Registered() {
			cfg := fuzzConfig(header)
			e := New(cfg, Options{Scheme: d.Scheme, ASRLevel: 1, Seed: uint64(header), CheckInvariants: true})
			times := make([]mem.Cycles, cfg.Cores)
			for i := 0; i+1 < len(ops); i += 2 {
				c, op := fuzzOp(ops[i], ops[i+1])
				res := e.Access(c, times[c], op)
				if res.Done < times[c] {
					t.Fatalf("%s: core %d time went backwards: %d -> %d", d.Name, c, times[c], res.Done)
				}
				times[c] = res.Done
				e.Advance(min(times[0], times[1], times[2], times[3]))
			}
			if err := conservationErr(e); err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
		}
	})
}
