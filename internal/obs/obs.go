// Package obs is the service's dependency-free observability layer: run
// tracing, fixed-bucket latency histograms in the Prometheus text
// exposition format, structured logging helpers over log/slog, and the
// build-info/runtime gauges every serving process should expose.
//
// The package deliberately depends on nothing outside the standard
// library, so every tier — the simulator facade, the execution engine, the
// storage stack, the HTTP edge — can be instrumented without dragging a
// metrics SDK into the module. Rendering is hand-written exposition text
// (version 0.0.4), the same discipline as the server's existing /metrics
// families, and Lint (lint.go) is the conformance checker that keeps it
// honest.
//
// The three concerns compose through Observer, one bundle the engine and
// server share:
//
//   - Tracer (trace.go): a span tree per run — admitted, queued,
//     simulating (with the simulator's own phase breakdown), stored —
//     kept in a bounded registry and served by
//     GET /v1/runs/{id}/trace. A nil Tracer disables tracing at zero
//     cost: every Tracer and Span method is nil-receiver safe.
//   - Histograms (histogram.go): fixed-bucket latency distributions for
//     run duration, queue wait, store operations and HTTP requests.
//   - Logging: NewLogger builds the slog.Logger all layers share, with
//     run/campaign/span correlation ids carried as attributes.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"time"
)

// Observer bundles one process's observability state: the (optional)
// tracer, the latency histograms every tier feeds, and the logger.
// Construct with New; Nop returns a silent instance for tests.
type Observer struct {
	// Tracer records per-run span trees; nil disables tracing (every
	// call site stays valid — Tracer methods are nil-receiver safe).
	Tracer *Tracer
	// Timelines records per-run epoch telemetry; nil disables it with
	// the same nil-receiver contract as Tracer.
	Timelines *Timelines
	// Log is the process logger; never nil.
	Log *slog.Logger

	// RunDuration observes admitted->terminal job latency.
	RunDuration *HistogramVec
	// QueueWait observes admitted->worker-pickup latency.
	QueueWait *HistogramVec
	// StoreOp observes result-store disk operation latency, labeled by
	// operation (get, put, delete, index). Its _count per op is the one
	// count of disk calls.
	StoreOp *HistogramVec
	// HTTP observes request latency at the API edge, labeled by route
	// pattern and status code.
	HTTP *HistogramVec

	start time.Time
}

// Options configure New.
type Options struct {
	// Tracing enables the span tracer.
	Tracing bool
	// MaxTraces bounds the tracer's trace registry (default 4096).
	MaxTraces int
	// Telemetry enables the per-run epoch timeline registry.
	Telemetry bool
	// MaxTimelines bounds the timeline registry (default 256).
	MaxTimelines int
	// Log is the process logger (default: a discard logger — commands
	// pass NewLogger to log for real, tests stay silent).
	Log *slog.Logger
}

// New builds an Observer. The histogram families exist (and render on
// /metrics) from the start, observations or not.
func New(o Options) *Observer {
	log := o.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	obs := &Observer{
		Log:   log,
		start: time.Now(),
		RunDuration: NewHistogramVec("lard_run_duration_seconds",
			"Job latency from queue admission to terminal state (done, failed or cancelled).",
			nil, DurationBuckets),
		QueueWait: NewHistogramVec("lard_queue_wait_seconds",
			"Job latency from queue admission to worker pickup.",
			nil, DurationBuckets),
		StoreOp: NewHistogramVec("lard_store_op_seconds",
			"Result-store disk operation latency by operation.",
			[]string{"op"}, FastBuckets),
		HTTP: NewHistogramVec("lard_http_request_seconds",
			"HTTP request latency by route pattern and status code.",
			[]string{"route", "code"}, DurationBuckets),
	}
	if o.Tracing {
		obs.Tracer = NewTracer(o.MaxTraces)
	}
	if o.Telemetry {
		obs.Timelines = NewTimelines(o.MaxTimelines)
	}
	return obs
}

// Nop returns an Observer with tracing disabled and a discard logger —
// the default for engines and servers whose caller wired nothing.
func Nop() *Observer { return New(Options{}) }

// Uptime reports how long this Observer (in practice: the process) has
// been alive.
func (o *Observer) Uptime() time.Duration { return time.Since(o.start) }

// StartedAt reports when the Observer was created.
func (o *Observer) StartedAt() time.Time { return o.start }

// WriteHistograms renders every histogram family in exposition format.
func (o *Observer) WriteHistograms(w io.Writer) {
	o.RunDuration.Write(w)
	o.QueueWait.Write(w)
	o.StoreOp.Write(w)
	o.HTTP.Write(w)
}

// NewLogger builds the structured logger the commands install: text
// handler on w at the given level, with every record carrying the
// component attribute. Layers add run/campaign/span correlation ids per
// call site (slog.String("run", id) and friends).
func NewLogger(w io.Writer, level slog.Level, component string) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With(slog.String("component", component))
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (use debug, info, warn or error)", s)
}

// buildVersion resolves the binary's version: the module version when
// stamped, else the VCS revision, else "dev".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "dev"
}

// WriteRuntimeMetrics renders the process-level families: lard_build_info
// (version and Go runtime labels), goroutine and heap gauges, cumulative
// GC pause time, and process uptime.
func (o *Observer) WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP lard_build_info Build metadata; the value is always 1.\n# TYPE lard_build_info gauge\n")
	fmt.Fprintf(w, "lard_build_info{version=%q,go_version=%q} 1\n", buildVersion(), runtime.Version())
	fmt.Fprintf(w, "# HELP lard_goroutines Live goroutines in the process.\n# TYPE lard_goroutines gauge\nlard_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP lard_heap_bytes Bytes of allocated heap objects.\n# TYPE lard_heap_bytes gauge\nlard_heap_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP lard_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n# TYPE lard_gc_pause_seconds_total counter\nlard_gc_pause_seconds_total %s\n",
		formatFloat(float64(ms.PauseTotalNs)/1e9))
	fmt.Fprintf(w, "# HELP lard_gc_cycles_total Completed GC cycles.\n# TYPE lard_gc_cycles_total counter\nlard_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP lard_uptime_seconds Seconds since the process started serving.\n# TYPE lard_uptime_seconds gauge\nlard_uptime_seconds %s\n",
		formatFloat(o.Uptime().Seconds()))
}
