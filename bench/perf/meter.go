package perf

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// meter measures a workload's timed phase in segments: one operation, or
// one stretch of load. It has the parent time the reference loop
// (hostref.go) before the first segment and after each one, and it records
// each segment's peak resident set, so a segment yields its latencies both
// in ms and in reference units, and its memory peak.
type meter struct {
	e        *env
	prev     float64   // the latest reference sample, ms
	raw, rel []float64 // latencies in ms, and ÷ the mean reference sample around their segment
	refs     []float64 // ms
	peaks    []float64 // MB
}

// startMeter takes the first reference sample.
func (e *env) startMeter() (*meter, error) {
	ref, err := e.refMS()
	return &meter{e: e, prev: ref, refs: []float64{ref}}, err
}

// begin starts a segment: the peak resident set restarts from the current
// one.
func (m *meter) begin() error { return resetPeakRSS() }

// end ends a segment whose operations took lat (ms): it reads the segment's
// memory peak, samples the reference again, and records lat both as it is
// and divided by the mean of the two samples around the segment.
func (m *meter) end(lat ...float64) error {
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	next, err := m.e.refMS()
	if err != nil {
		return err
	}
	ref := (m.prev + next) / 2
	m.prev = next
	m.refs = append(m.refs, next)
	m.peaks = append(m.peaks, peak)
	for _, l := range lat {
		m.raw = append(m.raw, l)
		m.rel = append(m.rel, l/ref)
	}
	return nil
}

// report sets the workload's latency and memory metrics.
func (m *meter) report() {
	n := len(m.raw)
	m.e.set("latency_ref_p50", median(m.rel), "ref", n)
	m.e.set("latency_ms_p50", median(m.raw), "ms", n)
	m.e.set("latency_ms_p90", percentile(m.raw, 0.9), "ms", n)
	m.e.set("latency_ms_p99", percentile(m.raw, 0.99), "ms", n)
	m.e.set("host_ref_ms", median(m.refs), "ms", len(m.refs))
	m.e.set("peak_rss_mb", median(m.peaks), "MB", len(m.peaks))
}

// resetPeakRSS restarts this process's peak resident set (VmHWM) from the
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads this process's peak resident set, VmHWM, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
