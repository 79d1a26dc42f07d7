// GET /metrics: the service's operational counters in the Prometheus text
// exposition format (version 0.0.4), hand-rendered so the service stays
// dependency-free. The families cover the run lifecycle (started, completed,
// failed, cached, cancelled), the job and campaign-member state gauges, the
// engine's event bus (events emitted/dropped, live subscribers), the
// result store's counters, and the worker pool's depth — everything
// needed to alert on a wedged pool, a cold store, a failing campaign or a
// stalled event feed. Each store event is counted once: disk calls by the
// lard_store_op_seconds histogram (its _count per op), hits and
// corruption by the lard_store_* counters.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics implements GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.engine.Stats()
	st := s.store.Stats()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	labeled := func(name, help, label string, vals map[string]int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s{%s=%q} %d\n", name, label, k, vals[k])
		}
	}

	counter("lard_runs_started_total", "Jobs a worker began simulating.", m.RunsStarted)
	counter("lard_runs_completed_total", "Worker simulations that finished successfully.", m.RunsCompleted)
	counter("lard_runs_failed_total", "Jobs that finished in failure (including shutdown drains).", m.RunsFailed)
	counter("lard_runs_cached_total", "Jobs answered from the result store without a worker.", m.RunsCached)
	counter("lard_runs_cancelled_total", "Jobs cancelled before or during simulation (DELETE /v1/runs/{id}).", m.RunsCancelled)
	labeled("lard_jobs", "Jobs in the registry by status.", "status", m.Jobs)
	counter("lard_campaigns_registered_total", "Campaigns registered (resubmissions attach, they do not count).", m.CampaignsSeen)
	gauge("lard_campaigns", "Campaigns currently in the registry.", m.Campaigns)
	labeled("lard_campaign_members", "Members of registered campaigns by job status (evicted-after-done members report pending).", "status", m.Members)
	gauge("lard_workers", "Simulation worker-pool size.", m.Workers)
	gauge("lard_busy_workers", "Workers currently simulating.", m.Busy)
	gauge("lard_queue_len", "Jobs waiting in the bounded queue.", m.QueueLen)
	gauge("lard_queue_cap", "Capacity of the bounded queue (full submissions shed with 429).", m.QueueCap)
	counter("lard_engine_events_total", "Events published on the engine's event bus.", m.Events.Published)
	counter("lard_engine_events_dropped_total", "Events dropped at full per-subscriber queues (slow consumers).", m.Events.Dropped)
	gauge("lard_engine_subscribers", "Live event-stream subscriptions.", m.Events.Subscribers)
	gauge("lard_engine_topics", "Event topics holding replayable history.", m.Events.Topics)
	if s.obs.Tracer.Enabled() { // -trace records timelines too
		ts := s.obs.Timelines.Stats()
		counter("lard_timeline_runs_total", "Runs that attached a telemetry flight recorder.", ts.Attached)
		gauge("lard_timeline_retained", "Timelines currently held in the bounded registry.", ts.Retained)
		gauge("lard_timeline_epochs", "Retained epochs summed across held timelines.", ts.Epochs)
		gauge("lard_timeline_samples", "Raw telemetry samples folded into held timelines.", int(ts.Samples))
	}
	counter("lard_store_mem_hits_total", "Store lookups served from the in-memory layer.", st.MemHits)
	counter("lard_store_disk_hits_total", "Store lookups served from the disk backend.", st.DiskHits)
	counter("lard_store_computes_total", "Compute callbacks executed (singleflight leaders).", st.Computes)
	counter("lard_store_shared_total", "Callers that piggybacked on an in-flight computation.", st.Shared)
	counter("lard_store_evictions_total", "Memory-layer entries dropped by the LRU bound.", st.Evictions)
	counter("lard_store_corrupt_entries_total", "On-disk entries that failed to decode and were recomputed.", st.CorruptEntries)
	gauge("lard_store_entries", "Entries in the store's in-memory layer.", s.store.Len())
	gauge("lard_store_disk_entries", "Entries in the store's disk backend (0 for a memory-only store).", st.DiskEntries)
	// The observability layer's latency histograms (run duration, queue
	// wait, store ops, HTTP) and the process-level families
	// (build info, goroutines, heap, GC, uptime).
	s.obs.WriteHistograms(&b)
	s.obs.WriteRuntimeMetrics(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
