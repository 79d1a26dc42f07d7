// Server-Sent Events: the HTTP face of the engine's event bus.
//
//	GET /v1/runs/{id}/events       one run's lifecycle + progress stream
//	GET /v1/campaigns/{id}/events  a campaign's member events, fanned in
//
// Both streams follow the same protocol: on attach, the topic's retained
// history is replayed (so a late subscriber sees everything that already
// happened, in order), then live events flow as they are published, with
// comment heartbeats in between so idle connections stay provably alive.
// A reconnecting client that sends a Last-Event-ID header gets only the
// history after that seq; a header that is not a seq replays everything.
// Each frame is
//
//	id: <seq>
//	data: <engine.Event as JSON>
//
// and the stream ends after the terminal event — the run's own for run
// streams; the campaign-level completion event (Job == "") for campaign
// streams, whose member events keep flowing until every member is
// terminal. A client that disconnects mid-stream is detached and its
// bounded event queue released; a client that consumes too slowly loses
// oldest-first (the engine counts drops in /metrics), never blocking the
// simulation.
//
// Watch a campaign live from a shell:
//
//	curl -N http://localhost:8347/v1/campaigns/<id>/events
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lard"
	"lard/internal/engine"
)

// sseHandshake prepares the response for event streaming. ok=false when
// the connection cannot stream (no flusher). The metrics middleware's
// statusWriter always satisfies http.Flusher by delegation, so it asks
// the wrapper whether the real connection underneath can stream.
func sseHandshake(w http.ResponseWriter) (http.Flusher, bool) {
	f, ok := w.(http.Flusher)
	if sw, wrapped := w.(*statusWriter); wrapped {
		ok = sw.flusherCapable()
	}
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return f, true
}

// writeSSE renders one event frame.
func writeSSE(w http.ResponseWriter, ev engine.Event) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
	return err
}

// stream replays history after the request's Last-Event-ID and then
// relays the live subscription until the stop condition fires, the client
// disconnects, or the subscription closes. Heartbeat comments flow while
// nothing else does.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, history []engine.Event, sub *engine.Subscription, done func(engine.Event) bool) {
	defer sub.Close()
	f, ok := sseHandshake(w)
	if !ok {
		return
	}
	// A terminal event mid-history is stale: a failed or cancelled job may
	// have been re-enqueued since, and the newer events follow it in the
	// replay. Only a terminal event that is the topic's LAST word means
	// the stream is over, whether or not the client had already seen it.
	over := len(history) > 0 && done(history[len(history)-1])
	if seen, err := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64); err == nil {
		for len(history) > 0 && history[0].Seq <= seen {
			history = history[1:]
		}
	}
	for _, ev := range history {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	f.Flush()
	if over {
		return
	}

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			// Client went away: detach (sub.Close above) so the engine's
			// subscriber gauge and bounded queue are released.
			return
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			f.Flush()
		case ev, open := <-sub.C:
			if !open {
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			f.Flush()
			if done(ev) {
				return
			}
		}
	}
}

// handleRunEvents implements GET /v1/runs/{id}/events. For ids the engine
// still tracks (or retains history for), the stream replays and follows
// the topic until the run's terminal event. For ids evicted from the
// registry whose result the store still holds, a single synthetic terminal
// frame is emitted — the event-sourced view of "done long ago".
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, sub, ok := s.engine.SubscribeRun(id)
	if !ok {
		res, found, err := lard.StoredByKey(s.store, id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !found {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
			return
		}
		f, hOK := sseHandshake(w)
		if !hOK {
			return
		}
		writeSSE(w, engine.Event{
			Seq: 1, Job: id, Benchmark: res.Benchmark, Scheme: res.Scheme,
			State: StatusDone, Progress: 1, Cached: true, Terminal: true,
		})
		f.Flush()
		return
	}
	s.stream(w, r, history, sub, func(ev engine.Event) bool { return ev.Terminal })
}

// handleCampaignEvents implements GET /v1/campaigns/{id}/events: every
// member's lifecycle and progress events (Campaign set, Job = member id),
// ending with the campaign-level completion event (Job == ""). A campaign
// with pending members — a part-filled submission the client never
// re-POSTed — streams forever (heartbeats between events); completion
// requires every member to be enqueued at least once.
func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, sub, ok := s.engine.SubscribeCampaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q (resubmit its matrix to rebuild it)", id))
		return
	}
	s.stream(w, r, history, sub, func(ev engine.Event) bool { return ev.Terminal && ev.Job == "" })
}
