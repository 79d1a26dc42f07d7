package main

import (
	"fmt"
	"net/http"
	"strings"

	"lard/internal/obs"
	"lard/internal/server"
)

// timelineSeries is the subset of recorded series worth a terminal
// sparkline: one row per coherence story (demand, replica locality,
// off-chip pressure, replication churn, directory population). The full
// series set stays available from GET /v1/runs/{id}/timeline?format=csv.
var timelineSeries = []string{
	"ops",
	"miss_llc_replica_hit",
	"miss_offchip",
	"replications",
	"invalidations",
	"directory_entries",
}

// renderTimelines prints a per-member epoch timeline for a completed
// remote campaign, built from GET /v1/runs/{id}/timeline: a sparkline
// per headline series (waterfall-style, so members line up under each
// other) plus a warmup/steady/tail phase summary of the off-chip and
// replica-hit shares. Members without timelines (cached before
// tracing, or evicted) are listed without rows; a server with tracing
// disabled fails with a hint rather than printing an empty table.
func renderTimelines(base string, view server.CampaignView) error {
	fmt.Println("\nPer-member epoch timelines")
	for _, m := range view.Members {
		// The 404 body is the server's {"error": ...} envelope; a 200 is
		// the timeline view itself.
		var tl struct {
			obs.TimelineView
			Error string `json:"error"`
		}
		code, err := getJSON(base+"/v1/runs/"+m.ID+"/timeline", &tl)
		if err != nil {
			return err
		}
		id := m.ID
		if len(id) > 12 {
			id = id[:12]
		}
		label := m.Benchmark + "/" + m.Scheme
		switch code {
		case http.StatusOK:
		case http.StatusNotFound:
			if err := tracingOff(tl.Error); err != nil {
				return err
			}
			fmt.Printf("%-14s %-22s (no timeline retained)\n", id, label)
			continue
		default:
			return fmt.Errorf("timeline for member %s: HTTP %d", m.ID, code)
		}
		if tl.Epochs == 0 {
			fmt.Printf("%-14s %-22s (cached, nothing simulated)\n", id, label)
			continue
		}
		fmt.Printf("%-14s %-22s %d epochs, %d samples/epoch\n", id, label, tl.Epochs, tl.Scale)
		for _, name := range timelineSeries {
			sv, ok := findSeries(tl.TimelineView, name)
			if !ok {
				continue
			}
			fmt.Printf("  %-22s %s  %s\n", name, sparkline(sv.Values, 32), seriesTotal(sv))
		}
		fmt.Printf("  %-22s %s\n", "phases", phaseSummary(tl.TimelineView))
	}
	return nil
}

// findSeries looks a series up by name in a timeline view.
func findSeries(v obs.TimelineView, name string) (obs.SeriesView, bool) {
	for _, s := range v.Series {
		if s.Name == name {
			return s, true
		}
	}
	return obs.SeriesView{}, false
}

// sparkline renders values as a fixed-width block-character strip.
// Counter series wider than width are folded by addition (conserving
// shape the same way the recorder's decimation does); each cell is
// scaled against the strip's own maximum.
func sparkline(values []uint64, width int) string {
	if len(values) == 0 {
		return ""
	}
	cells := fold(values, width)
	var max uint64
	for _, v := range cells {
		if v > max {
			max = v
		}
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range cells {
		i := 0
		if max > 0 {
			i = int(v * uint64(len(ramp)-1) / max)
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}

// fold buckets values down to at most width cells by addition.
func fold(values []uint64, width int) []uint64 {
	if len(values) <= width {
		return values
	}
	cells := make([]uint64, width)
	for i, v := range values {
		cells[i*width/len(values)] += v
	}
	return cells
}

// seriesTotal summarizes one series for the sparkline's right margin:
// the conserved sum for counters, the final level for gauges.
func seriesTotal(s obs.SeriesView) string {
	if s.Kind == obs.Gauge.String() {
		if len(s.Values) == 0 {
			return "last 0"
		}
		return fmt.Sprintf("last %d", s.Values[len(s.Values)-1])
	}
	var sum uint64
	for _, v := range s.Values {
		sum += v
	}
	return fmt.Sprintf("total %d", sum)
}

// phaseSummary splits the run's epochs into warmup/steady/tail thirds
// and reports the off-chip miss rate and replica-hit share of LLC
// traffic in each — the paper's story (replicas warm up, off-chip
// pressure falls) read straight off the timeline.
func phaseSummary(v obs.TimelineView) string {
	off, _ := findSeries(v, "miss_offchip")
	rep, _ := findSeries(v, "miss_llc_replica_hit")
	home, _ := findSeries(v, "miss_llc_home_hit")
	ops, _ := findSeries(v, "ops")
	names := [3]string{"warmup", "steady", "tail"}
	parts := make([]string, 0, 3)
	n := len(ops.Values)
	for p := 0; p < 3; p++ {
		lo, hi := p*n/3, (p+1)*n/3
		if lo >= hi {
			continue
		}
		var o, r, h, t uint64
		for i := lo; i < hi; i++ {
			o += at(off.Values, i)
			r += at(rep.Values, i)
			h += at(home.Values, i)
			t += at(ops.Values, i)
		}
		llc := r + h + o
		if t == 0 {
			continue
		}
		part := fmt.Sprintf("%s: offchip %.1f%%", names[p], 100*float64(o)/float64(t))
		if llc > 0 {
			part += fmt.Sprintf(", replica share %.1f%%", 100*float64(r)/float64(llc))
		}
		parts = append(parts, part)
	}
	if len(parts) == 0 {
		return "(no samples)"
	}
	return strings.Join(parts, " | ")
}

// at is a bounds-checked index (series can be absent, giving nil Values).
func at(v []uint64, i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}
