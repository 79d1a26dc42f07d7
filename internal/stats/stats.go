// Package stats defines the measurement vocabulary of the evaluation
// (§3.4): completion-time breakdown components, L1 miss types, the Figure-1
// run-length histogram, and small aggregation helpers (normalization,
// geometric mean, text tables) used by the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"strings"

	"lard/internal/mem"
)

// TimeComponent enumerates the completion-time breakdown of Figure 7.
type TimeComponent uint8

// Completion-time components, in Figure 7 legend order.
const (
	Compute TimeComponent = iota
	L1ToLLCReplica
	L1ToLLCHome
	LLCHomeWaiting
	LLCHomeToSharers
	LLCHomeToOffChip
	Synchronization
	NumTimeComponents = 7
)

// String implements fmt.Stringer.
func (t TimeComponent) String() string {
	switch t {
	case Compute:
		return "Compute"
	case L1ToLLCReplica:
		return "L1-To-LLC-Replica"
	case L1ToLLCHome:
		return "L1-To-LLC-Home"
	case LLCHomeWaiting:
		return "LLC-Home-Waiting"
	case LLCHomeToSharers:
		return "LLC-Home-To-Sharers"
	case LLCHomeToOffChip:
		return "LLC-Home-To-OffChip"
	case Synchronization:
		return "Synchronization"
	default:
		return fmt.Sprintf("TimeComponent(%d)", uint8(t))
	}
}

// TimeBreakdown accumulates cycles per component.
type TimeBreakdown [NumTimeComponents]mem.Cycles

// Add accumulates other into b.
func (b *TimeBreakdown) Add(other TimeBreakdown) {
	for i := range b {
		b[i] += other[i]
	}
}

// Total returns the sum over all components.
func (b *TimeBreakdown) Total() mem.Cycles {
	var t mem.Cycles
	for _, v := range b {
		t += v
	}
	return t
}

// MissType classifies how an access was serviced (§3.4).
type MissType uint8

// Miss types. L1Hit is not plotted in Figure 8 (which breaks down L1
// *misses*) but is tracked for MPKI-style statistics.
const (
	L1Hit MissType = iota
	LLCReplicaHit
	LLCHomeHit
	OffChipMiss
	NumMissTypes = 4
)

// String implements fmt.Stringer.
func (t MissType) String() string {
	switch t {
	case L1Hit:
		return "L1-Hit"
	case LLCReplicaHit:
		return "LLC-Replica-Hit"
	case LLCHomeHit:
		return "LLC-Home-Hit"
	case OffChipMiss:
		return "OffChip-Miss"
	default:
		return fmt.Sprintf("MissType(%d)", uint8(t))
	}
}

// MissCounts counts accesses per miss type.
type MissCounts [NumMissTypes]uint64

// Add accumulates other into m.
func (m *MissCounts) Add(other MissCounts) {
	for i := range m {
		m[i] += other[i]
	}
}

// L1Misses returns the number of accesses that missed the L1.
func (m *MissCounts) L1Misses() uint64 {
	return m[LLCReplicaHit] + m[LLCHomeHit] + m[OffChipMiss]
}

// RunBucket is a Figure-1 run-length bucket.
type RunBucket uint8

// Run-length buckets of Figure 1.
const (
	Run1to2 RunBucket = iota
	Run3to9
	Run10plus
	NumRunBuckets = 3
)

// String implements fmt.Stringer.
func (b RunBucket) String() string {
	switch b {
	case Run1to2:
		return "[1-2]"
	case Run3to9:
		return "[3-9]"
	case Run10plus:
		return "[>=10]"
	default:
		return fmt.Sprintf("RunBucket(%d)", uint8(b))
	}
}

// BucketOf returns the bucket containing run-length n (n >= 1).
func BucketOf(n uint64) RunBucket {
	switch {
	case n <= 2:
		return Run1to2
	case n <= 9:
		return Run3to9
	default:
		return Run10plus
	}
}

// RunLengthHist is the Figure-1 histogram: LLC accesses by data class and
// run-length bucket. Entry [c][b] counts the accesses belonging to runs of
// class c whose total length falls in bucket b (a completed run of length n
// contributes n accesses to its bucket, matching the paper's "distribution
// of accesses as a function of run-length").
type RunLengthHist [mem.NumDataClasses][NumRunBuckets]uint64

// Add accumulates other into h.
func (h *RunLengthHist) Add(other *RunLengthHist) {
	for c := range h {
		for b := range h[c] {
			h[c][b] += other[c][b]
		}
	}
}

// Total returns the total number of accesses recorded.
func (h *RunLengthHist) Total() uint64 {
	var t uint64
	for c := range h {
		for _, v := range h[c] {
			t += v
		}
	}
	return t
}

// Share returns the fraction of all accesses in class c, bucket b (0 when
// the histogram is empty).
func (h *RunLengthHist) Share(c mem.DataClass, b RunBucket) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h[c][b]) / float64(t)
}

// Geomean returns the geometric mean of vs (which must all be positive);
// it returns 0 for an empty slice.
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Mean returns the arithmetic mean of vs (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Table renders rows as an aligned text table with a header row and a
// separator, suitable for terminal output and Markdown code blocks.
func Table(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := len(width) - 1
	for _, w := range width {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
