package main

import (
	"fmt"
	"net/http"
	"strings"

	"lard/internal/obs"
	"lard/internal/server"
)

// renderWaterfall prints a per-member phase-timing waterfall for a
// completed remote campaign, built from each member's span tree
// (GET /v1/runs/{id}/trace): queue wait, the simulator's own phase
// breakdown (setup, trace decode, coherence loop, finalize), the store
// write, and a bar proportional to the member's total so the outliers
// jump out. Members without traces (cached before tracing, or evicted)
// are listed without timings; a server with tracing disabled fails with
// a hint rather than printing an empty table.
func renderWaterfall(base string, view server.CampaignView) error {
	type row struct {
		member  string
		label   string
		cached  bool
		total   float64
		queued  float64
		phases  [4]float64 // setup, trace_decode, coherence_loop, finalize
		stored  float64
		noTrace bool
	}
	phaseNames := [4]string{"setup", "trace_decode", "coherence_loop", "finalize"}

	rows := make([]row, 0, len(view.Members))
	maxTotal := 0.0
	for _, m := range view.Members {
		r := row{member: m.ID, label: m.Benchmark + "/" + m.Scheme}
		// The 404 body is the server's {"error": ...} envelope; a 200 is
		// the trace view itself.
		var tree struct {
			obs.TraceView
			Error string `json:"error"`
		}
		code, err := getJSON(base+"/v1/runs/"+m.ID+"/trace", &tree)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusOK:
			r.total = tree.Root.DurationMS
			r.queued = spanDuration(tree.Root, "queued")
			for i, name := range phaseNames {
				r.phases[i] = spanDuration(tree.Root, name)
			}
			r.stored = spanDuration(tree.Root, "stored")
			if _, ok := findSpanView(tree.Root, "simulating"); !ok {
				r.cached = true
			}
		case http.StatusNotFound:
			if err := tracingOff(tree.Error); err != nil {
				return err
			}
			r.noTrace = true
		default:
			return fmt.Errorf("trace for member %s: HTTP %d", m.ID, code)
		}
		if r.total > maxTotal {
			maxTotal = r.total
		}
		rows = append(rows, r)
	}

	fmt.Println("\nPer-member timing waterfall (ms)")
	fmt.Printf("%-14s %-22s %8s %8s %8s %10s %8s %8s %9s\n",
		"member", "bench/scheme", "queued", "setup", "decode", "coherence", "final", "stored", "total")
	const barWidth = 24
	for _, r := range rows {
		id := r.member
		if len(id) > 12 {
			id = id[:12]
		}
		if r.noTrace {
			fmt.Printf("%-14s %-22s %s\n", id, r.label, "(no trace retained)")
			continue
		}
		if r.cached {
			fmt.Printf("%-14s %-22s %66.2f  (cached)\n", id, r.label, r.total)
			continue
		}
		bar := ""
		if maxTotal > 0 {
			n := int(r.total / maxTotal * barWidth)
			if n < 1 {
				n = 1
			}
			bar = "  " + strings.Repeat("#", n)
		}
		fmt.Printf("%-14s %-22s %8.2f %8.2f %8.2f %10.2f %8.2f %8.2f %9.2f%s\n",
			id, r.label, r.queued, r.phases[0], r.phases[1], r.phases[2], r.phases[3], r.stored, r.total, bar)
	}
	return nil
}

// tracingOff turns the 404 body of a server started without -trace into
// lard-bench's error, nil for any other 404 (an unknown or evicted run).
func tracingOff(msg string) error {
	if strings.Contains(msg, "tracing is disabled") {
		return fmt.Errorf("-trace needs a lard-server started with -trace: %s", msg)
	}
	return nil
}

// spanDuration returns the duration of the first span named name in the
// tree, 0 when absent.
func spanDuration(v obs.SpanView, name string) float64 {
	s, ok := findSpanView(v, name)
	if !ok {
		return 0
	}
	return s.DurationMS
}

// findSpanView walks the span tree depth-first for the first span with
// the given name.
func findSpanView(v obs.SpanView, name string) (obs.SpanView, bool) {
	if v.Name == name {
		return v, true
	}
	for _, c := range v.Children {
		if s, ok := findSpanView(c, name); ok {
			return s, true
		}
	}
	return obs.SpanView{}, false
}
