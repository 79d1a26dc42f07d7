package engine

import "sync"

// Event is one observation of a job's lifecycle, the engine's unit of
// event sourcing. Every state transition and every throttled progress
// update of a run is an Event, published to the run's own topic and —
// for campaign members — re-published to each enrolled campaign's topic
// with Campaign set. Seq is the per-topic sequence number: within one
// topic, events are totally ordered and replayable. Events carry no
// telemetry and no span ids: a run's span tree and epoch timeline are
// read, in flight or finished, from GET /v1/runs/{id}/trace and
// /timeline, where an event's Job and State already name its span
// (queued → "queued", running → "simulating", terminal → "stored").
type Event struct {
	// Seq orders events within their topic, starting at 1.
	Seq uint64 `json:"seq"`
	// Job is the run's content address ("" for campaign-level events).
	Job string `json:"job,omitempty"`
	// Campaign is the campaign id on campaign-topic events.
	Campaign string `json:"campaign,omitempty"`
	// Benchmark and Scheme identify the run for display.
	Benchmark string `json:"benchmark,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	// State is the lifecycle state this event reports (queued, running,
	// done, failed, cancelled — or, for campaign-level events, done/failed
	// when every member is terminal).
	State string `json:"state"`
	// Progress is the instructions-retired fraction in [0,1].
	Progress float64 `json:"progress"`
	// Cached marks a run served from the result store without simulating.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure reason on failed events.
	Error string `json:"error,omitempty"`
	// Terminal marks the final event of a job (or of a campaign on
	// campaign-level events): no further events follow for it.
	Terminal bool `json:"terminal,omitempty"`
}

// Subscription is one live event feed. Receive from C; call Close exactly
// once when done (client disconnect, end of interest). After Close the
// channel is drained and closed by the bus.
type Subscription struct {
	// C delivers events in publication order, subject to the bounded
	// queue: when a slow consumer falls more than the queue depth behind,
	// the oldest undelivered events are dropped (newest-first retention,
	// so terminal events survive congestion).
	C <-chan Event

	bus     *bus
	topic   string
	ch      chan Event
	dropped uint64
	closed  bool
}

// Close detaches the subscription from the bus. Safe to call once; the
// event channel is closed so range loops terminate.
func (s *Subscription) Close() { s.bus.unsubscribe(s) }

// Dropped reports how many events this subscription lost to its bounded
// queue.
func (s *Subscription) Dropped() uint64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// topicState holds one topic's history and live subscribers.
type topicState struct {
	seq     uint64
	history []Event
	subs    map[*Subscription]struct{}
	// evicted marks a topic whose owning job or campaign left the
	// registry: it is reaped once the last subscriber detaches.
	evicted bool
}

// bus is the engine's event fan-out: per-topic ordered history plus
// bounded per-subscriber queues. All methods are safe for concurrent use.
type bus struct {
	mu       sync.Mutex
	topics   map[string]*topicState
	queueCap int // per-subscriber channel depth
	histCap  int // per-topic replay history bound

	published uint64
	dropped   uint64
	subs      int
}

// The engine's bus bounds. History keeps every lifecycle flip plus ~100
// throttled progress events per job, so defaultHistCap comfortably covers
// a full run; subscriber queues are sized for bursts, not for archives —
// replay serves catch-up.
const (
	defaultQueueCap = 256
	defaultHistCap  = 512
)

func newBus(queueCap, histCap int) *bus {
	return &bus{topics: make(map[string]*topicState), queueCap: queueCap, histCap: histCap}
}

func (b *bus) topic(name string) *topicState {
	t, ok := b.topics[name]
	if !ok {
		t = &topicState{subs: make(map[*Subscription]struct{})}
		b.topics[name] = t
	}
	return t
}

// publish stamps ev with the topic's next sequence number, appends it to
// the replay history, and offers it to every subscriber. History beyond
// the bound is compacted progress-first (see compactHistory): lifecycle
// flips survive, so a late subscriber to even a large campaign replays
// every member's queued/running/terminal trajectory gap-free — only stale
// interior progress frames are forgotten. A subscriber whose queue is
// full loses its oldest queued event, never the new one: under congestion
// the live feed degrades to newest-events-only, which keeps terminal
// events flowing.
func (b *bus) publish(topicName string, ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topicName)
	t.seq++
	ev.Seq = t.seq
	t.history = append(t.history, ev)
	if len(t.history) > b.histCap {
		t.history = compactHistory(t.history, b.histCap)
	}
	b.published++
	for s := range t.subs {
		select {
		case s.ch <- ev:
			continue
		default:
		}
		// Queue full: drop the oldest queued event to make room. The
		// receiver may race us and drain meanwhile, so retry once and
		// count a drop only when something was actually lost.
		select {
		case <-s.ch:
			s.dropped++
			b.dropped++
		default:
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped++
			b.dropped++
		}
	}
}

// subscribe registers a new subscriber and atomically snapshots the
// topic's replay history: every retained event is either in the returned
// history or will arrive on the subscription, with no gap and no
// duplicate in between (compaction may have dropped old interior progress
// frames from the history — never lifecycle events, see compactHistory).
func (b *bus) subscribe(topicName string) ([]Event, *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topicName)
	s := &Subscription{bus: b, topic: topicName, ch: make(chan Event, b.queueCap)}
	s.C = s.ch
	t.subs[s] = struct{}{}
	b.subs++
	hist := make([]Event, len(t.history))
	copy(hist, t.history)
	return hist, s
}

// unsubscribe detaches s and closes its channel; reaps the topic when it
// was evicted and this was its last subscriber.
func (b *bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	t, ok := b.topics[s.topic]
	if ok {
		delete(t.subs, s)
		if t.evicted && len(t.subs) == 0 {
			delete(b.topics, s.topic)
		}
	}
	b.subs--
	// Publishers send only under b.mu, which we hold: closing is safe.
	close(s.ch)
}

// compactHistory shrinks an over-bound history toward max by discarding
// the oldest interior progress frames first (already superseded by newer
// fractions), and only when lifecycle events alone exceed the bound does
// it drop oldest events outright. The newest event always survives. This
// is what keeps a many-member campaign's replay truthful about member
// *states* however chatty its progress stream was.
func compactHistory(h []Event, max int) []Event {
	excess := len(h) - max
	if excess <= 0 {
		return h
	}
	out := h[:0]
	for i, ev := range h {
		if excess > 0 && i < len(h)-1 && progressFrame(ev) {
			excess--
			continue
		}
		out = append(out, ev)
	}
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// progressFrame reports whether ev is an interior progress update — a
// non-terminal running event strictly inside (0,1) — as opposed to a
// lifecycle flip (queued, running-start at 0, terminal).
func progressFrame(ev Event) bool {
	return !ev.Terminal && ev.State == StatusRunning && ev.Progress > 0 && ev.Progress < 1
}

// hasTopic reports whether the topic holds any retained state.
func (b *bus) hasTopic(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.topics[name]
	return ok
}

// release marks a topic's owner as gone: its history is dropped
// immediately if nobody is watching, or as soon as the last subscriber
// detaches. Bounds the bus to the registries' lifetimes.
func (b *bus) release(topicName string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[topicName]
	if !ok {
		return
	}
	if len(t.subs) == 0 {
		delete(b.topics, topicName)
		return
	}
	t.evicted = true
}

// EventStats is the bus's observability snapshot.
type EventStats struct {
	// Published counts events accepted onto topics; Dropped counts events
	// lost to full subscriber queues (a drop is per subscriber: one
	// publish can drop once per slow consumer).
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	// Subscribers is the live subscription count; Topics the number of
	// topics holding history.
	Subscribers int `json:"subscribers"`
	Topics      int `json:"topics"`
}

func (b *bus) stats() EventStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return EventStats{Published: b.published, Dropped: b.dropped, Subscribers: b.subs, Topics: len(b.topics)}
}
