package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DurationBuckets are the default latency bounds, in seconds: half a
// millisecond up to a minute, covering everything from a cached-result
// HTTP hit to a full-scale simulation run.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// FastBuckets are bounds for sub-millisecond operations (in-memory and
// single-file store ops): one microsecond up to a second.
var FastBuckets = []float64{
	1e-6, 5e-6, 2.5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 0.5, 1,
}

// Histogram is one fixed-bucket latency distribution: cumulative bucket
// counts plus sum and count, rendered in the Prometheus exposition
// histogram convention (_bucket{le=...}, _sum, _count). Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implied
	counts []uint64  // per-bucket (non-cumulative) counts, len(bounds)+1
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the slice is tiny so this
	// is a handful of comparisons.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, sum and total under one lock.
func (h *Histogram) snapshot() (cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.total
}

// HistogramVec is a family of Histograms sharing a name, help text,
// bucket layout and label names; each distinct label-value tuple gets its
// own child. A vec with no label names has exactly one child (created
// eagerly, so the family renders on /metrics before any traffic).
type HistogramVec struct {
	name   string
	help   string
	labels []string
	bounds []float64

	mu       sync.Mutex
	children map[string]*histChild
	order    []string // insertion-ordered keys for stable rendering
}

type histChild struct {
	labelValues []string
	hist        *Histogram
}

// NewHistogramVec builds a histogram family. bounds must be ascending;
// +Inf is implied and must not be included.
func NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending", name))
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], +1) {
		panic(fmt.Sprintf("obs: histogram %s must not include +Inf bound", name))
	}
	v := &HistogramVec{
		name:     name,
		help:     help,
		labels:   labels,
		bounds:   bounds,
		children: make(map[string]*histChild),
	}
	if len(labels) == 0 {
		v.With() // eager single child: family renders even before traffic
	}
	return v
}

// With returns the child histogram for the given label values (one per
// label name, in order), creating it on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: histogram %s expects %d label values, got %d",
			v.name, len(v.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &histChild{
			labelValues: append([]string(nil), labelValues...),
			hist:        newHistogram(v.bounds),
		}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c.hist
}

// Observe records v on the child for the given label values.
func (v *HistogramVec) Observe(val float64, labelValues ...string) {
	v.With(labelValues...).Observe(val)
}

// ObserveDuration records d (in seconds) on the child for the labels.
func (v *HistogramVec) ObserveDuration(d time.Duration, labelValues ...string) {
	v.With(labelValues...).Observe(d.Seconds())
}

// formatFloat renders a float the exposition way: shortest representation
// that round-trips, +Inf spelled "+Inf".
func formatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// labelPairs renders `name="value",...` for the given names and values,
// escaping per the exposition format.
func labelPairs(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Write renders the family in exposition text format: one HELP and TYPE
// line, then for each child its cumulative _bucket series (le last, +Inf
// included), _sum and _count.
func (v *HistogramVec) Write(w io.Writer) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*histChild, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	for _, c := range children {
		prefix := labelPairs(v.labels, c.labelValues)
		cum, sum, total := c.hist.snapshot()
		for i, bound := range v.bounds {
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", v.name, joinLabels(prefix, `le="`+formatFloat(bound)+`"`), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", v.name, joinLabels(prefix, `le="+Inf"`), total)
		if prefix == "" {
			fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", v.name, formatFloat(sum), v.name, total)
		} else {
			fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", v.name, prefix, formatFloat(sum), v.name, prefix, total)
		}
	}
}

func joinLabels(prefix, le string) string {
	if prefix == "" {
		return le
	}
	return prefix + "," + le
}
