package trace

import (
	"testing"
	"testing/quick"

	"lard/internal/config"
	"lard/internal/mem"
)

func collect(p Profile, cfg *config.Config, scale float64, seed uint64, core int) []Op {
	return drain(Generate(p, cfg, scale, seed).Streams[core], 256)
}

// drain returns the rest of s, filled chunk operations at a time.
func drain(s *Stream, chunk int) []Op {
	var ops []Op
	buf := make([]Op, chunk)
	for {
		n := s.Fill(buf)
		if n == 0 {
			return ops
		}
		ops = append(ops, buf[:n]...)
	}
}

// TestFillChunking requires the same stream whatever the fill size, over
// a buffer that holds stale operations from earlier fills: every field of
// every written op must be rewritten.
func TestFillChunking(t *testing.T) {
	cfg := config.Small()
	for _, name := range []string{"BARNES", "LU-NC", "BLACKSCH."} {
		p := mustProfile(t, name)
		want := collect(p, cfg, 0.05, 5, 3)
		for _, chunk := range []int{1, 7, 4096} {
			s := Generate(p, cfg, 0.05, 5).Streams[3]
			buf := make([]Op, chunk)
			for i := range buf {
				buf[i] = Op{Addr: 1, Gap: 9, Type: mem.Store, Class: mem.ClassSharedRW, Barrier: true}
			}
			var got []Op
			for {
				n := s.Fill(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s chunk %d: %d ops, want %d", name, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s chunk %d: op %d = %+v, want %+v", name, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfilesComplete(t *testing.T) {
	// The 21 benchmarks of Table 2, in Figure-6 order.
	want := []string{
		"RADIX", "FFT", "LU-C", "LU-NC", "CHOLESKY", "BARNES", "OCEAN-C",
		"OCEAN-NC", "WATER-NSQ", "RAYTRACE", "VOLREND", "BLACKSCH.",
		"SWAPTIONS", "FLUIDANIM.", "STREAMCLUS.", "DEDUP", "FERRET",
		"BODYTRACK", "FACESIM", "PATRICIA", "CONCOMP",
	}
	got := Names()
	if len(got) != 21 {
		t.Fatalf("%d benchmarks, want 21 (Table 2)", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("benchmark %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("NOPE"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestProfileFractionsValid(t *testing.T) {
	for _, p := range Profiles {
		sum := p.FracInstr + p.FracSharedRO + p.FracSharedRW
		if sum < 0 || sum > 1 {
			t.Errorf("%s: class fractions sum to %v", p.Name, sum)
		}
		if p.FracHot < 0 || p.FracHot >= 1 {
			t.Errorf("%s: FracHot = %v out of range", p.Name, p.FracHot)
		}
		if p.Ops <= 0 {
			t.Errorf("%s: Ops = %d", p.Name, p.Ops)
		}
		if p.Migratory && p.MigSweeps < 1 {
			t.Errorf("%s: migratory profile needs MigSweeps", p.Name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BARNES")
	a := collect(p, cfg, 0.05, 7, 3)
	b := collect(p, cfg, 0.05, 7, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BARNES")
	a := collect(p, cfg, 0.05, 1, 3)
	b := collect(p, cfg, 0.05, 2, 3)
	same := true
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must produce different streams")
	}
}

// TestMixMatchesProfile: the deficit interleaver realizes the class mix.
func TestMixMatchesProfile(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BARNES")
	ops := collect(p, cfg, 0.2, 0, 0)
	var count [mem.NumDataClasses]int
	n := 0
	for _, op := range ops {
		if op.Barrier {
			continue
		}
		count[op.Class]++
		n++
	}
	cold := 1 - p.FracHot
	wantRW := cold * p.FracSharedRW
	gotRW := float64(count[mem.ClassSharedRW]) / float64(n)
	if gotRW < wantRW-0.02 || gotRW > wantRW+0.02 {
		t.Errorf("shared-rw fraction = %.3f, want %.3f", gotRW, wantRW)
	}
	wantI := cold * p.FracInstr
	gotI := float64(count[mem.ClassInstruction]) / float64(n)
	if gotI < wantI-0.02 || gotI > wantI+0.02 {
		t.Errorf("instruction fraction = %.3f, want %.3f", gotI, wantI)
	}
}

func TestBarrierCount(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BARNES") // Barriers: 4
	ops := collect(p, cfg, 0.2, 0, 5)
	barriers := 0
	for _, op := range ops {
		if op.Barrier {
			barriers++
		}
	}
	if barriers != p.Barriers {
		t.Fatalf("emitted %d barriers, want %d", barriers, p.Barriers)
	}
}

func TestOpsScale(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "DEDUP")
	full := collect(p, cfg, 1, 0, 0)
	half := collect(p, cfg, 0.5, 0, 0)
	memOps := func(ops []Op) int {
		n := 0
		for _, op := range ops {
			if !op.Barrier {
				n++
			}
		}
		return n
	}
	if got, want := memOps(half)*2, memOps(full); got < want-2 || got > want+2 {
		t.Fatalf("scale 0.5 gives %d ops, full gives %d", memOps(half), memOps(full))
	}
}

// TestRegionDisjointness: classes live in disjoint address regions, and
// private regions are disjoint across cores.
func TestRegionDisjointness(t *testing.T) {
	cfg := config.Small()
	for _, name := range []string{"BARNES", "RAYTRACE", "OCEAN-C", "LU-NC"} {
		p := mustProfile(t, name)
		regions := map[mem.DataClass]map[mem.LineAddr]bool{}
		for core := 0; core < 4; core++ {
			for _, op := range collect(p, cfg, 0.02, 0, core) {
				if op.Barrier {
					continue
				}
				if regions[op.Class] == nil {
					regions[op.Class] = map[mem.LineAddr]bool{}
				}
				regions[op.Class][mem.LineOf(op.Addr)] = true
			}
		}
		for c1, r1 := range regions {
			for c2, r2 := range regions {
				if c1 >= c2 {
					continue
				}
				for la := range r1 {
					if r2[la] {
						t.Fatalf("%s: line %#x in both %v and %v", name, uint64(la), c1, c2)
					}
				}
			}
		}
	}
}

// TestPrivateRegionsPerCore: two cores' private (non-false-shared) lines
// never collide.
func TestPrivateRegionsPerCore(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "DEDUP")
	seen := map[mem.LineAddr]int{}
	for core := 0; core < 8; core++ {
		for _, op := range collect(p, cfg, 0.02, 0, core) {
			if op.Barrier || op.Class != mem.ClassPrivate {
				continue
			}
			la := mem.LineOf(op.Addr)
			if prev, ok := seen[la]; ok && prev != core {
				t.Fatalf("private line %#x used by cores %d and %d", uint64(la), prev, core)
			}
			seen[la] = core
		}
	}
}

// TestFalseSharingLayout: BLACKSCH private lines share pages across cores
// (that is the point), but not lines.
func TestFalseSharingLayout(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BLACKSCH.")
	pages := map[mem.PageAddr]map[int]bool{}
	lines := map[mem.LineAddr]int{}
	for core := 0; core < 8; core++ {
		for _, op := range collect(p, cfg, 0.05, 0, core) {
			if op.Barrier || op.Class != mem.ClassPrivate {
				continue
			}
			la := mem.LineOf(op.Addr)
			if prev, ok := lines[la]; ok && prev != core {
				t.Fatalf("false sharing must be page-level, not line-level: %#x", uint64(la))
			}
			lines[la] = core
			pg := mem.PageOf(op.Addr)
			if pages[pg] == nil {
				pages[pg] = map[int]bool{}
			}
			pages[pg][core] = true
		}
	}
	shared := 0
	for _, cores := range pages {
		if len(cores) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("BLACKSCH pages must be cross-core shared")
	}
}

// TestMigratoryExclusivity: only the epoch owner touches a migratory block,
// and it writes during its ownership (the LU-NC pattern).
func TestMigratoryExclusivity(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "LU-NC")
	sp := p.scaled(cfg)
	block := sp.RWLines / cfg.Cores
	ops := collect(p, cfg, 0.3, 0, 2)
	writes, reads := 0, 0
	for _, op := range ops {
		if op.Barrier || op.Class != mem.ClassSharedRW {
			continue
		}
		if op.Type == mem.Store {
			writes++
		} else {
			reads++
		}
	}
	if writes == 0 {
		t.Fatal("migratory owner must write during its epoch")
	}
	// The final sweep writes: writes ≈ reads/(sweeps-1).
	ratio := float64(reads) / float64(writes)
	want := float64(sp.MigSweeps - 1)
	if ratio < want*0.7 || ratio > want*1.4 {
		t.Errorf("read/write ratio = %.2f, want about %.0f", ratio, want)
	}
	if block <= cfg.L1DLines {
		t.Errorf("migratory block (%d lines) must exceed the L1-D (%d) or no LLC reuse exists",
			block, cfg.L1DLines)
	}
}

// TestRunLengthControl: with RWOwnerPeriod N, a non-owner core accesses a
// line about N times between the owner's writes.
func TestRunLengthControl(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "BARNES") // RWOwnerPeriod 12
	// Count per-line accesses between writes for one core and one line it
	// does not own, by merging all cores' streams round-robin.
	w := Generate(p, cfg, 1, 0)
	type ev struct {
		core  int
		write bool
	}
	// Collect per-core shared-RW sequences, then interleave them index-wise
	// (the cores progress at the same rate in the simulator).
	perCore := make([][]ev, cfg.Cores)
	perCoreLine := make([][]mem.LineAddr, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		for _, op := range drain(w.Streams[c], 256) {
			if op.Barrier || op.Class != mem.ClassSharedRW {
				continue
			}
			perCore[c] = append(perCore[c], ev{c, op.Type == mem.Store})
			perCoreLine[c] = append(perCoreLine[c], mem.LineOf(op.Addr))
		}
	}
	perLine := map[mem.LineAddr][]ev{}
	for i := 0; ; i++ {
		any := false
		for c := 0; c < cfg.Cores; c++ {
			if i < len(perCore[c]) {
				any = true
				la := perCoreLine[c][i]
				perLine[la] = append(perLine[la], perCore[c][i])
			}
		}
		if !any {
			break
		}
	}
	// Average run length of non-owner cores (accesses between any writes).
	var runs []int
	for _, evs := range perLine {
		counts := map[int]int{}
		for _, e := range evs {
			if e.write {
				for c, n := range counts {
					if n > 0 {
						runs = append(runs, n)
					}
					delete(counts, c)
				}
				continue
			}
			counts[e.core]++
		}
	}
	if len(runs) == 0 {
		t.Skip("no completed runs at this scale")
	}
	sum := 0
	for _, r := range runs {
		sum += r
	}
	avg := float64(sum) / float64(len(runs))
	if avg < 6 || avg > 24 {
		t.Errorf("BARNES mean run length = %.1f, want around RWOwnerPeriod=12", avg)
	}
}

// TestScaledWorkingSets: scaling preserves the capacity relationships.
func TestScaledWorkingSets(t *testing.T) {
	small := config.Small()
	big := config.Default64()
	for _, name := range []string{"BARNES", "OCEAN-C", "LU-NC"} {
		p := mustProfile(t, name)
		ss := p.scaled(small)
		sb := p.scaled(big)
		if sb.ROLines != p.ROLines || sb.PrivLines != p.PrivLines {
			t.Errorf("%s: Table-1 machine must keep nominal sizes", name)
		}
		if name != "LU-NC" && ss.RWLines*4 != sb.RWLines {
			t.Errorf("%s: slice-relative region must scale 4x (%d vs %d)", name, ss.RWLines, sb.RWLines)
		}
		if name == "LU-NC" && ss.RWLines*16 != sb.RWLines {
			t.Errorf("LU-NC: migratory region must scale with total LLC (%d vs %d)", ss.RWLines, sb.RWLines)
		}
	}
}

// TestStreamsDeterministicProperty: any (profile, seed, core) triple is
// reproducible — quick-checked over seeds and cores.
func TestStreamsDeterministicProperty(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "FERRET")
	f := func(seed uint16, core uint8) bool {
		c := int(core) % cfg.Cores
		a := collect(p, cfg, 0.005, uint64(seed), c)
		b := collect(p, cfg, 0.005, uint64(seed), c)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHotSetIsL1Resident: the hot slot sweeps a set far smaller than the
// L1-D, so it models filtered traffic.
func TestHotSetIsL1Resident(t *testing.T) {
	cfg := config.Small()
	p := mustProfile(t, "SWAPTIONS")
	lines := map[mem.LineAddr]bool{}
	for _, op := range collect(p, cfg, 0.05, 0, 1) {
		if op.Barrier || op.Class != mem.ClassPrivate {
			continue
		}
		lines[mem.LineOf(op.Addr)] = true
	}
	// hot set (48) + private WS; the hot lines are a contiguous run.
	if len(lines) == 0 {
		t.Fatal("no private lines emitted")
	}
	if hotLines >= cfg.L1DLines {
		t.Fatalf("hot set (%d) must fit the L1-D (%d)", hotLines, cfg.L1DLines)
	}
}

func TestCoreLineHelper(t *testing.T) {
	cfg := config.Small()
	pfs := mustProfile(t, "BLACKSCH.")
	w := Generate(pfs, cfg, 0.01, 0)
	a0 := w.Streams[0].CoreLine(5)
	a1 := w.Streams[1].CoreLine(5)
	if a0 == a1 {
		t.Fatal("different cores' false-shared lines must differ")
	}
	if mem.PageOf(a0) != mem.PageOf(a1) {
		t.Fatal("false-shared lines of the same index must share a page")
	}
}
