// GET /metrics: the service's operational counters in the Prometheus text
// exposition format (version 0.0.4), hand-rendered so the service stays
// dependency-free. The families cover the run lifecycle (started, completed,
// failed, cached, cancelled), the job and campaign-member state gauges, the
// engine's event bus (events emitted/dropped, live subscribers), the
// result store's traffic counters, and the worker
// pool's depth — everything needed to alert on a wedged pool, a cold store,
// a failing campaign or a stalled event feed.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"lard/internal/store"
)

// backendMetricRow is one flattened backend node: its path through the
// composite tree ("sharded/shard-02", "replicated/peer") and its snapshot.
type backendMetricRow struct {
	path string
	st   store.Stats
}

// flattenBackend walks the backend stats tree depth-first.
func flattenBackend(prefix string, st store.Stats, out *[]backendMetricRow) {
	path := st.Name
	if prefix != "" {
		path = prefix + "/" + st.Name
	}
	*out = append(*out, backendMetricRow{path: path, st: st})
	for _, child := range st.Shards {
		flattenBackend(path, child, out)
	}
}

// renderBackendMetrics exposes the persistent backend tree: per-shard
// traffic and entry counts, plus the locality-aware replication ledger
// (promotions, replica hits, owner fetches, evictions) of any replicated
// tier — the observability face of the storage subsystem, so the locality
// win (replica hits climbing, owner fetches flattening) shows up on a
// dashboard, not just in logs.
func renderBackendMetrics(b *strings.Builder, root store.Stats) {
	var rows []backendMetricRow
	flattenBackend("", root, &rows)

	series := func(name, help, metric string, value func(store.Stats) (uint64, bool)) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, metric)
		for _, r := range rows {
			if v, ok := value(r.st); ok {
				fmt.Fprintf(b, "%s{backend=%q,kind=%q} %d\n", name, r.path, r.st.Kind, v)
			}
		}
	}
	always := func(f func(store.Stats) uint64) func(store.Stats) (uint64, bool) {
		return func(s store.Stats) (uint64, bool) { return f(s), true }
	}
	series("lard_backend_entries", "Entries stored per backend (per-shard occupancy; -1/absent when unknown).", "gauge",
		func(s store.Stats) (uint64, bool) { return uint64(s.Entries), s.Entries >= 0 })
	series("lard_backend_gets_total", "Get calls per backend.", "counter", always(func(s store.Stats) uint64 { return s.Gets }))
	series("lard_backend_hits_total", "Get hits per backend.", "counter", always(func(s store.Stats) uint64 { return s.Hits }))
	series("lard_backend_misses_total", "Get misses per backend.", "counter", always(func(s store.Stats) uint64 { return s.Misses }))
	series("lard_backend_puts_total", "Put calls per backend.", "counter", always(func(s store.Stats) uint64 { return s.Puts }))
	series("lard_backend_deletes_total", "Delete calls per backend.", "counter", always(func(s store.Stats) uint64 { return s.Deletes }))
	series("lard_backend_evictions_total", "Capacity evictions per backend.", "counter", always(func(s store.Stats) uint64 { return s.Evictions }))

	repl := func(name, help string, value func(*store.ReplicationStats) uint64) {
		emitted := false
		for _, r := range rows {
			if r.st.Replication == nil {
				continue
			}
			if !emitted {
				fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
				emitted = true
			}
			fmt.Fprintf(b, "%s{backend=%q} %d\n", name, r.path, value(r.st.Replication))
		}
	}
	repl("lard_replica_promotions_total", "Hot entries promoted into the local backend after crossing the reuse threshold.",
		func(r *store.ReplicationStats) uint64 { return r.Promotions })
	repl("lard_replica_hits_total", "Reads served from a local replica instead of the owner backend.",
		func(r *store.ReplicationStats) uint64 { return r.ReplicaHits })
	repl("lard_owner_fetches_total", "Reads that crossed to the owner backend (no local replica).",
		func(r *store.ReplicationStats) uint64 { return r.OwnerFetches })
	repl("lard_replica_evictions_total", "Replicas evicted back to owner-only by the capacity bound.",
		func(r *store.ReplicationStats) uint64 { return r.ReplicaEvictions })
	for _, r := range rows {
		if r.st.Replication != nil {
			fmt.Fprintf(b, "# HELP lard_replicas Current local replica count.\n# TYPE lard_replicas gauge\nlard_replicas{backend=%q} %d\n",
				r.path, r.st.Replication.Replicas)
		}
	}
}

// handleMetrics implements GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.engine.MetricsSnapshot()
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
	if s.obs.Timelines.Enabled() {
		ts := s.obs.Timelines.Stats()
		counter("lard_timeline_runs_total", "Runs that attached a telemetry flight recorder.", ts.Attached)
		gauge("lard_timeline_retained", "Timelines currently held in the bounded registry.", ts.Retained)
		gauge("lard_timeline_epochs", "Retained epochs summed across held timelines.", ts.Epochs)
		gauge("lard_timeline_samples", "Raw telemetry samples folded into held timelines.", int(ts.Samples))
		counter("lard_timeline_epoch_frames_dropped_total", "Live epoch frames discarded by event-history compaction.", m.Events.EpochDropped)
	}
	counter("lard_store_mem_hits_total", "Store lookups served from the in-memory layer.", st.MemHits)
	counter("lard_store_disk_hits_total", "Store lookups served from the disk backend.", st.DiskHits)
	counter("lard_store_misses_total", "Store lookups that found nothing and went on to compute.", st.Misses)
	counter("lard_store_computes_total", "Compute callbacks executed (singleflight leaders).", st.Computes)
	counter("lard_store_shared_total", "Callers that piggybacked on an in-flight computation.", st.Shared)
	counter("lard_store_evictions_total", "Memory-layer entries dropped by the LRU bound.", st.Evictions)
	counter("lard_store_corrupt_entries_total", "On-disk entries that failed to decode and were recomputed.", st.CorruptEntries)
	gauge("lard_store_entries", "Entries in the store's in-memory layer.", s.store.Len())
	if bs, ok := s.store.BackendStats(); ok {
		renderBackendMetrics(&b, bs)
	}
	// The observability layer's latency histograms (run duration, queue
	// wait, store ops, HTTP) and the process-level families
	// (build info, goroutines, heap, GC, uptime).
	s.obs.WriteHistograms(&b)
	s.obs.WriteRuntimeMetrics(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
