package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records one span tree per trace id (in practice: per run, keyed
// by the run's content address). The registry is bounded — when it is
// full, the oldest finished trace is evicted first, then the oldest
// trace outright — so a long-lived server cannot grow without limit.
//
// A nil *Tracer is the disabled tracer: every method (and every method
// of the nil *Span it returns) is a no-op, so call sites never branch on
// "is tracing on".
type Tracer struct {
	mu     sync.Mutex
	traces map[string]*traceRec
	order  []string // insertion order, for eviction
	max    int

	idPrefix string
	idSeq    atomic.Uint64
}

type traceRec struct {
	id      string
	root    *Span
	started time.Time
}

// DefaultMaxTraces bounds the trace registry when Options.MaxTraces is 0.
const DefaultMaxTraces = 4096

// NewTracer builds an enabled tracer holding at most maxTraces traces
// (0 = DefaultMaxTraces).
func NewTracer(maxTraces int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	var b [6]byte
	rand.Read(b[:])
	return &Tracer{
		traces:   make(map[string]*traceRec),
		max:      maxTraces,
		idPrefix: hex.EncodeToString(b[:]),
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// nextSpanID mints a process-unique span id: a per-process random prefix
// plus an atomic counter.
func (t *Tracer) nextSpanID() string {
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], t.idSeq.Add(1))
	return t.idPrefix + hex.EncodeToString(seq[2:])
}

// Span is one timed operation in a trace. Spans form a tree under the
// trace's root; children are added with Child and a span is closed with
// End. All methods are nil-receiver safe.
type Span struct {
	tracer *Tracer

	mu       sync.Mutex
	id       string
	trace    string
	name     string
	start    time.Time
	end      time.Time // zero while open
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// StartTrace begins (or restarts) the trace with the given id and
// returns its root span. Restarting an id — a retried job — discards the
// previous tree, so the trace always describes the attempt that
// produced the stored result.
func (t *Tracer) StartTrace(id, rootName string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	root := &Span{
		tracer: t,
		id:     t.nextSpanID(),
		trace:  id,
		name:   rootName,
		start:  now,
	}
	t.mu.Lock()
	if _, exists := t.traces[id]; exists {
		// Restart: drop the old tree but keep the registry slot's age.
		t.traces[id] = &traceRec{id: id, root: root, started: now}
		t.mu.Unlock()
		return root
	}
	if len(t.order) >= t.max {
		t.evictLocked()
	}
	t.traces[id] = &traceRec{id: id, root: root, started: now}
	t.order = append(t.order, id)
	t.mu.Unlock()
	return root
}

// evictLocked drops one trace: the oldest finished one if any, else the
// oldest outright.
func (t *Tracer) evictLocked() {
	for i, id := range t.order {
		if rec, ok := t.traces[id]; ok && rec.root.finished() {
			delete(t.traces, id)
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
	if len(t.order) > 0 {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
}

// Len returns the number of traces currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Child starts a child span under s. Returns nil (a valid no-op span)
// when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer: s.tracer,
		id:     s.tracer.nextSpanID(),
		trace:  s.trace,
		name:   name,
		start:  time.Now(),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildAt adds a finished child span with an explicit start time and
// duration — used to write each of the simulator's phases, measured
// inside sim.Run, into the tree as the phase ends.
func (s *Span) ChildAt(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer: s.tracer,
		id:     s.tracer.nextSpanID(),
		trace:  s.trace,
		name:   name,
		start:  start,
		end:    start.Add(d),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span (idempotent). Ending a span also closes any child
// still open at the same instant, so a failed or cancelled run never
// leaves a dangling open span in a finished trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.endAt(now)
}

func (s *Span) endAt(now time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.endAt(now)
	}
}

// ID returns the span's id ("" for the nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// finished reports whether the span has ended.
func (s *Span) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// SpanView is the JSON shape of one span in a trace tree.
type SpanView struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	End        *time.Time `json:"end,omitempty"`
	DurationMS float64    `json:"duration_ms"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []SpanView `json:"children,omitempty"`
}

// TraceView is the JSON shape of GET /v1/runs/{id}/trace.
type TraceView struct {
	Trace    string   `json:"trace"`
	Finished bool     `json:"finished"`
	Root     SpanView `json:"root"`
}

// Tree returns the trace with the given id as a serializable view, or
// ok=false when unknown (or the tracer is disabled).
func (t *Tracer) Tree(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	t.mu.Lock()
	rec, ok := t.traces[id]
	t.mu.Unlock()
	if !ok {
		return TraceView{}, false
	}
	return TraceView{
		Trace:    id,
		Finished: rec.root.finished(),
		Root:     rec.root.view(),
	}, true
}

// view snapshots the span subtree.
func (s *Span) view() SpanView {
	s.mu.Lock()
	v := SpanView{
		ID:    s.id,
		Name:  s.name,
		Start: s.start,
		Attrs: append([]Attr(nil), s.attrs...),
	}
	if !s.end.IsZero() {
		end := s.end
		v.End = &end
		v.DurationMS = end.Sub(s.start).Seconds() * 1e3
	} else {
		v.DurationMS = time.Since(s.start).Seconds() * 1e3
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.view())
	}
	sort.SliceStable(v.Children, func(i, j int) bool {
		return v.Children[i].Start.Before(v.Children[j].Start)
	})
	return v
}
