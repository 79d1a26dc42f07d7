// Package trace generates the synthetic multithreaded memory-access streams
// that stand in for the paper's 21 benchmarks (Table 2). The real programs
// are not reproducible here; what the protocol under study observes is the
// *access stream* — the mix of instruction, private, shared read-only and
// shared read-write references, their working-set sizes relative to the
// cache hierarchy, their reuse run-lengths at the LLC, and their
// write-sharing structure (including migratory hand-off and page-level false
// sharing). Each benchmark profile parameterizes exactly those properties,
// tuned to the per-benchmark behaviour the paper describes (see profile.go).
//
// Streams are deterministic: the same (profile, config, seed) always yields
// the same per-core sequence.
package trace

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"lard/internal/config"
	"lard/internal/mem"
)

// Op is one element of a per-core stream: either a memory reference or a
// barrier (all cores synchronize; the simulator charges the wait to the
// Synchronization component).
type Op struct {
	// Addr is the referenced byte address (line-aligned).
	Addr mem.Addr
	// Gap is the number of compute cycles preceding this operation.
	Gap uint16
	// Type is the reference type; meaningless for barriers.
	Type mem.AccessType
	// Class is the generator's ground-truth data class.
	Class mem.DataClass
	// Barrier marks a synchronization point.
	Barrier bool
}

// Region bases, in line addresses. Regions are disjoint by construction:
// per-core private regions are spaced privStride lines apart.
const (
	instrBase  mem.LineAddr = 0x0100_0000
	privBase   mem.LineAddr = 0x1000_0000
	privStride mem.LineAddr = 0x0100_0000 // 16M lines (1 GB) per core
	fsBase     mem.LineAddr = 0x8000_0000
	roBase     mem.LineAddr = 0x9000_0000
	rwBase     mem.LineAddr = 0xA000_0000
)

// schedClasses is the number of scheduling slots of the deficit
// interleaver: the four data classes plus the L1-resident hot slot.
const schedClasses = mem.NumDataClasses + 1

// hotSlot is the scheduling slot of L1-resident private accesses.
const hotSlot = mem.NumDataClasses

// hotLines is the per-core hot working set (fits comfortably in the L1-D).
const hotLines = 48

// classWeights is the scheduling weight vector of the deficit interleaver.
type classWeights [schedClasses]float64

// Stream produces one core's operation sequence.
type Stream struct {
	core  mem.CoreID
	cores int
	p     Profile
	// rng is held by value and drawn from directly: Bernoulli draws
	// compare against the per-stream thresholds below and gap draws go
	// through intN, both bit for bit what rand.Rand's Float64 and IntN
	// would return from the same source, without its interface call.
	rng rand.PCG

	// privStore, rwStore and hotStore are the thresholds (see below) of
	// the private, read-write and hot-set store coins; gapN is the gap
	// draw's range, 2·Gap+1.
	privStore, rwStore, hotStore uint64
	gapN                         uint64

	emitted, total int
	perPhase       int // ops between barriers
	sincePhase     int
	barriersLeft   int

	weights classWeights
	deficit classWeights

	// Region sizes in lines, at least 1: the cursors below wrap at them
	// by comparison, never by division.
	instrN, privN, roN, rwN int

	instrPos, privPos, roPos, hotPos int

	// Read-write cursor state: rwPos counts every step from rwStart,
	// rwIdx is rwPos mod rwN (the line within the region) and rwOwner is
	// rwIdx mod cores (the line's owning core).
	rwPos, rwIdx, rwOwner, rwPass, rwStart int

	// Migratory cursor state (sharedRW with Migratory): migBlock lines per
	// core block, and migOwned, the block the core sweeps this pass, which
	// starts at the core's own and advances by one each pass.
	migBlock, migOwned, migSweep, migIdx int
}

// Workload is the full set of per-core streams for one benchmark run.
type Workload struct {
	// Name is the benchmark name.
	Name string
	// Streams holds one stream per core.
	Streams []*Stream
}

// Generate builds the workload for profile p on the machine described by
// cfg. opsScale scales the per-core operation count (1.0 = the profile's
// nominal length); working-set sizes scale with the machine's cache sizes so
// the pressure relationships the profile encodes survive scaled-down test
// configurations.
func Generate(p Profile, cfg *config.Config, opsScale float64, seed uint64) *Workload {
	sp := p.scaled(cfg)
	ops := int(float64(sp.Ops) * opsScale)
	if ops < 1 {
		ops = 1
	}
	w := &Workload{Name: p.Name, Streams: make([]*Stream, cfg.Cores)}
	migBlock := max(sp.RWLines/cfg.Cores, 1)
	// The profile's class mix describes the LLC-relevant traffic; the hot
	// fraction models the L1-resident accesses of real programs and scales
	// the rest down.
	var weights classWeights
	cold := 1 - sp.FracHot
	weights[hotSlot] = sp.FracHot
	weights[mem.ClassInstruction] = cold * sp.FracInstr
	weights[mem.ClassSharedRO] = cold * sp.FracSharedRO
	weights[mem.ClassSharedRW] = cold * sp.FracSharedRW
	priv := 1 - sp.FracInstr - sp.FracSharedRO - sp.FracSharedRW
	if priv < 0 {
		priv = 0
	}
	weights[mem.ClassPrivate] = cold * priv
	for c := 0; c < cfg.Cores; c++ {
		s := &Stream{
			core:    mem.CoreID(c),
			cores:   cfg.Cores,
			p:       sp,
			total:   ops,
			weights: weights,

			privStore: below(sp.PrivWriteFrac),
			rwStore:   below(sp.RWWriteFrac),
			hotStore:  below(0.3),
			gapN:      uint64(2*sp.Gap + 1),
		}
		s.rng.Seed(seed, uint64(c)*0x9E3779B97F4A7C15+1)
		s.barriersLeft = sp.Barriers
		if sp.Barriers > 0 {
			s.perPhase = ops / (sp.Barriers + 1)
			if s.perPhase < 1 {
				s.perPhase = 1
			}
		}
		// Desynchronize the cores' sweeps: each core starts at a different
		// offset of the shared regions, as threads of a real program would.
		// The extra +c skews the offsets off multiples of the core count so
		// concurrently-issued accesses spread over all home slices instead
		// of converging on one.
		if sp.ROLines > 0 {
			s.roPos = ((c*sp.ROLines)/cfg.Cores + c) % sp.ROLines
		}
		if sp.RWLines > 0 && !sp.Migratory {
			s.rwPos = ((c*sp.RWLines)/cfg.Cores + c) % sp.RWLines
			s.rwStart = s.rwPos
		}
		if sp.InstrLines > 0 {
			s.instrPos = ((c*sp.InstrLines)/(cfg.Cores*4) + c) % sp.InstrLines
		}
		s.instrN, s.privN = max(sp.InstrLines, 1), max(sp.PrivLines, 1)
		s.roN, s.rwN = max(sp.ROLines, 1), max(sp.RWLines, 1)
		s.rwIdx = s.rwPos
		s.rwOwner = s.rwIdx % cfg.Cores
		s.migBlock, s.migOwned = migBlock, c
		w.Streams[c] = s
	}
	return w
}

// Remaining returns the number of memory operations the stream will still
// produce (barriers excluded).
func (s *Stream) Remaining() int { return s.total - s.emitted }

// Fill writes the stream's next operations into dst and returns how many it
// produced; 0 means the stream is exhausted. A consumer refills a reusable
// chunk buffer and iterates a flat []Op instead of paying a call per
// access on its hot loop. The stream is the same however it is split into
// fills.
func (s *Stream) Fill(dst []Op) int {
	n := 0
	for ; n < len(dst) && s.emitted < s.total; n++ {
		op := &dst[n]
		if s.barriersLeft > 0 && s.sincePhase >= s.perPhase {
			s.sincePhase = 0
			s.barriersLeft--
			*op = Op{Barrier: true}
			continue
		}
		slot := s.pickClass()
		s.emitted++
		s.sincePhase++
		if slot == hotSlot {
			s.emitHot(op)
		} else {
			s.emit(op, mem.DataClass(slot))
		}
		if s.p.Gap > 0 {
			op.Gap = uint16(s.intN(s.gapN))
		}
	}
	return n
}

// below returns the coin threshold of probability p: rand.Rand's
// Float64 is x/2^53 for x, the source's next 53 low bits, so
// Float64() < p exactly when x < ceil(p·2^53). Scaling by 2^53 is exact,
// so the integer compare decides every draw as the float compare would.
// A p of 0 or less (or NaN) never fires; 1 or more always does.
func below(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// coin draws one Bernoulli trial against a threshold from below.
func (s *Stream) coin(threshold uint64) bool {
	return s.rng.Uint64()<<11>>11 < threshold
}

// intN returns a draw in [0, n), n > 0, exactly as rand.Rand's IntN
// would from the same source on a 64-bit platform: a mask for a power of
// two, otherwise Lemire's multiply with the same rejection loop.
func (s *Stream) intN(n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.rng.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(s.rng.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.rng.Uint64(), n)
		}
	}
	return hi
}

// Core returns the stream's core.
func (s *Stream) Core() mem.CoreID { return s.core }

// pickClass runs the deterministic deficit interleaver: the slot furthest
// behind its target fraction goes next, so the realized mix matches the
// profile exactly even for short streams. The returned value is either a
// data class or hotSlot.
func (s *Stream) pickClass() int {
	best, bestV := 0, -1.0
	for i := range s.deficit {
		s.deficit[i] += s.weights[i]
		if s.deficit[i] > bestV {
			best, bestV = i, s.deficit[i]
		}
	}
	s.deficit[best]--
	return best
}

// emitHot writes an access to the per-core L1-resident hot set into op:
// the register-spill/stack traffic of a real thread that the L1 filters
// out before the LLC ever sees it. It is private data at an address range
// next to the core's private region.
func (s *Stream) emitHot(op *Op) {
	line := privBase + mem.LineAddr(s.core)*privStride + privStride/2 + mem.LineAddr(s.hotPos)
	if s.hotPos++; s.hotPos == hotLines {
		s.hotPos = 0
	}
	typ := mem.Load
	if s.coin(s.hotStore) {
		typ = mem.Store
	}
	*op = Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassPrivate}
}

// emit writes the next reference of the given class into op.
func (s *Stream) emit(op *Op, class mem.DataClass) {
	switch class {
	case mem.ClassInstruction:
		line := instrBase + mem.LineAddr(s.instrPos)
		if s.instrPos++; s.instrPos == s.instrN {
			s.instrPos = 0
		}
		*op = Op{Addr: mem.AddrOfLine(line), Type: mem.IFetch, Class: class}

	case mem.ClassPrivate:
		idx := s.privPos
		if s.privPos++; s.privPos == s.privN {
			s.privPos = 0
		}
		var line mem.LineAddr
		if s.p.FalseShare {
			// Page-level false sharing (BLACKSCHOLES, §4.1): line i of core
			// c lives in page i, so every page holds truly-private lines of
			// up to 64 different cores. The slot rotates with the page index
			// so the interleaved home of a core's line is usually remote
			// (a slot equal to the core id would alias home == owner).
			slot := (int(s.core) + idx) % mem.LinesPerPage
			line = fsBase + mem.LineAddr(idx)*mem.LinesPerPage + mem.LineAddr(slot)
		} else {
			line = privBase + mem.LineAddr(s.core)*privStride + mem.LineAddr(idx)
		}
		typ := mem.Load
		if s.coin(s.privStore) {
			typ = mem.Store
		}
		*op = Op{Addr: mem.AddrOfLine(line), Type: typ, Class: class}

	case mem.ClassSharedRO:
		line := roBase + mem.LineAddr(s.roPos)
		if s.roPos++; s.roPos == s.roN {
			s.roPos = 0
		}
		*op = Op{Addr: mem.AddrOfLine(line), Type: mem.Load, Class: class}

	default: // ClassSharedRW
		if s.p.Migratory {
			s.emitMigratory(op)
			return
		}
		idx, owner, first := s.rwIdx, s.rwOwner, s.rwPos < s.rwStart+s.rwN
		line := rwBase + mem.LineAddr(idx)
		s.rwPos++
		if s.rwOwner++; s.rwOwner == s.cores {
			s.rwOwner = 0
		}
		if s.rwIdx++; s.rwIdx == s.rwN {
			s.rwIdx, s.rwOwner = 0, 0
			s.rwPass++
		}
		typ := mem.Load
		if s.coin(s.rwStore) {
			typ = mem.Store
		}
		// Owner-phase writes: line idx's owning core updates it on its first
		// visit (so every line is written early, as initialization would)
		// and then once every RWOwnerPeriod passes, as a program phase
		// would. Every other core then observes an LLC run-length of about
		// RWOwnerPeriod on the line, independent of the core count.
		if s.p.RWOwnerPeriod > 0 && owner == int(s.core) &&
			(s.rwPass%s.p.RWOwnerPeriod == 0 || first) {
			typ = mem.Store
		}
		*op = Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassSharedRW}
	}
}

// emitMigratory writes the migratory hand-off pattern of LU-NC into op: the
// shared region is partitioned into per-core blocks larger than the L1,
// ownership of each block rotates across cores every pass, and the owner
// sweeps its block MigSweeps times (the final sweep writing), giving each
// line a run-length of MigSweeps at the LLC before the next owner's
// conflicting access. Replicating such lines requires an
// Exclusive/Modified-state replica (§2.3.1).
func (s *Stream) emitMigratory(op *Op) {
	sweeps := max(s.p.MigSweeps, 1)
	line := rwBase + mem.LineAddr(s.migOwned*s.migBlock+s.migIdx)

	typ := mem.Load
	if s.migSweep == sweeps-1 {
		typ = mem.Store
	}
	s.migIdx++
	if s.migIdx >= s.migBlock {
		s.migIdx = 0
		s.migSweep++
		if s.migSweep >= sweeps {
			s.migSweep = 0
			if s.migOwned++; s.migOwned == s.cores {
				s.migOwned = 0
			}
		}
	}
	*op = Op{Addr: mem.AddrOfLine(line), Type: typ, Class: mem.ClassSharedRW}
}

// CoreLine returns the address of the stream core's i-th private line
// (diagnostics/tests).
func (s *Stream) CoreLine(i int) mem.Addr {
	if s.p.FalseShare {
		slot := (int(s.core) + i) % mem.LinesPerPage
		return mem.AddrOfLine(fsBase + mem.LineAddr(i)*mem.LinesPerPage + mem.LineAddr(slot))
	}
	return mem.AddrOfLine(privBase + mem.LineAddr(s.core)*privStride + mem.LineAddr(i))
}
