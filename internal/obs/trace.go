package obs

import (
	"sort"
	"sync"
	"time"
)

// Tracer records one span tree per trace id (in practice: per run, keyed
// by the run's content address), held in a bounded registry (see
// registry) so a long-lived server cannot grow without limit.
//
// A nil *Tracer is the disabled tracer: every method (and every method
// of the nil *Span it returns) is a no-op, so call sites never branch on
// "is tracing on".
type Tracer struct {
	traces *registry[*Span] // root span per trace id
}

// maxTraces bounds the trace registry. A cold run's span tree holds
// about 1.4 KB of heap, so a full registry stays under 6 MB.
const maxTraces = 4096

// NewTracer builds an enabled tracer holding at most maxTraces traces.
func NewTracer() *Tracer {
	return &Tracer{traces: newRegistry(maxTraces, (*Span).finished)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is one timed operation in a trace. Spans form a tree under the
// trace's root; children are added with Child and a span is closed with
// End. All methods are nil-receiver safe.
type Span struct {
	mu       sync.Mutex
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
// previous tree but keeps its registry slot's age, so the trace always
// describes the attempt that produced the stored result.
func (t *Tracer) StartTrace(id, rootName string) *Span {
	if t == nil {
		return nil
	}
	root := &Span{name: rootName, start: time.Now()}
	t.traces.put(id, root)
	return root
}

// Len returns the number of traces currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.traces.len()
}

// Child starts a child span under s. Returns nil (a valid no-op span)
// when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
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
	c := &Span{name: name, start: start, end: start.Add(d)}
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

// finished reports whether the span has ended.
func (s *Span) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// SpanView is the JSON shape of one span in a trace tree.
type SpanView struct {
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
	root, ok := t.traces.get(id)
	if !ok {
		return TraceView{}, false
	}
	return TraceView{
		Trace:    id,
		Finished: root.finished(),
		Root:     root.view(),
	}, true
}

// view snapshots the span subtree.
func (s *Span) view() SpanView {
	s.mu.Lock()
	v := SpanView{
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
