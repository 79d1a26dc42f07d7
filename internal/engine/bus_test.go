package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestBusReplayThenLive pins the no-gap-no-dup subscription contract:
// every event lands exactly once, either in the replay snapshot or on the
// live feed, in sequence order.
func TestBusReplayThenLive(t *testing.T) {
	b := newBus(16, 64)
	for i := 0; i < 5; i++ {
		b.publish("topic", Event{State: StatusRunning})
	}
	hist, sub := b.subscribe("topic")
	defer sub.Close()
	if len(hist) != 5 {
		t.Fatalf("replay = %d events, want 5", len(hist))
	}
	for i := 0; i < 3; i++ {
		b.publish("topic", Event{State: StatusRunning})
	}
	b.publish("topic", Event{State: StatusDone, Terminal: true})

	seen := append([]Event(nil), hist...)
	for ev := range sub.C {
		seen = append(seen, ev)
		if ev.Terminal {
			break
		}
	}
	if len(seen) != 9 {
		t.Fatalf("saw %d events, want 9", len(seen))
	}
	for i, ev := range seen {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate)", i, ev.Seq, i+1)
		}
	}
}

// TestBusHistoryBound pins the replay ring: old events fall off, the
// newest survive.
func TestBusHistoryBound(t *testing.T) {
	b := newBus(4, 8)
	for i := 0; i < 20; i++ {
		b.publish("t", Event{State: StatusRunning})
	}
	hist, sub := b.subscribe("t")
	sub.Close()
	if len(hist) != 8 {
		t.Fatalf("history = %d, want 8", len(hist))
	}
	if hist[len(hist)-1].Seq != 20 || hist[0].Seq != 13 {
		t.Fatalf("history seqs %d..%d, want 13..20", hist[0].Seq, hist[len(hist)-1].Seq)
	}
}

// TestBusSlowConsumerDrops pins the bounded-queue policy: a consumer that
// never drains loses the oldest events (counted), while the newest —
// including the terminal — survive in the queue.
func TestBusSlowConsumerDrops(t *testing.T) {
	b := newBus(4, 128)
	_, sub := b.subscribe("t")
	defer sub.Close()
	for i := 0; i < 20; i++ {
		b.publish("t", Event{State: StatusRunning})
	}
	b.publish("t", Event{State: StatusDone, Terminal: true})
	if d := sub.Dropped(); d != 17 {
		t.Fatalf("dropped = %d, want 17 (21 published, 4 retained)", d)
	}
	if st := b.stats(); st.Dropped != 17 || st.Published != 21 {
		t.Fatalf("bus stats = %+v", st)
	}
	var last Event
	for i := 0; i < 4; i++ {
		last = <-sub.C
	}
	if !last.Terminal || last.Seq != 21 {
		t.Fatalf("newest retained event = %+v, want the terminal (seq 21)", last)
	}
}

// TestBusConcurrency hammers subscribe/unsubscribe/publish from many
// goroutines with deliberately slow consumers; run under -race this is the
// bus's data-race certificate. Every subscription that stays attached must
// observe replay+live seqs strictly increasing.
func TestBusConcurrency(t *testing.T) {
	b := newBus(8, 32)
	const (
		topics     = 4
		publishers = 4
		churners   = 8
		events     = 200
	)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				b.publish(fmt.Sprintf("t%d", (p+i)%topics), Event{State: StatusRunning})
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				topic := fmt.Sprintf("t%d", (c+i)%topics)
				hist, sub := b.subscribe(topic)
				lastSeq := uint64(0)
				for _, ev := range hist {
					if ev.Seq <= lastSeq {
						t.Errorf("replay seq %d after %d", ev.Seq, lastSeq)
					}
					lastSeq = ev.Seq
				}
				// Drain a few live events (may block briefly; publishers
				// are still running), then churn.
				for k := 0; k < 3; k++ {
					select {
					case ev := <-sub.C:
						if ev.Seq <= lastSeq {
							t.Errorf("live seq %d after %d", ev.Seq, lastSeq)
						}
						lastSeq = ev.Seq
					default:
					}
				}
				sub.Close()
			}
		}(c)
	}
	wg.Wait()
	st := b.stats()
	if st.Subscribers != 0 {
		t.Fatalf("leaked %d subscribers", st.Subscribers)
	}
	if st.Published != publishers*events {
		t.Fatalf("published = %d, want %d", st.Published, publishers*events)
	}
	for i := 0; i < topics; i++ {
		b.release(fmt.Sprintf("t%d", i))
	}
	if st := b.stats(); st.Topics != 0 {
		t.Fatalf("leaked %d topics after release", st.Topics)
	}
}

// TestBusHistoryCompactionPrefersLifecycle pins the large-campaign replay
// contract: when history overflows, interior progress frames are
// forgotten first and every lifecycle flip — queued, running-start,
// terminal — survives, so a late subscriber still learns every job's
// state trajectory.
func TestBusHistoryCompactionPrefersLifecycle(t *testing.T) {
	b := newBus(4, 64)
	const jobs = 18 // 18 * (3 lifecycle + 9 progress) = 216 events >> 64
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%02d", j)
		b.publish("camp", Event{Job: id, State: StatusQueued})
		b.publish("camp", Event{Job: id, State: StatusRunning})
		for p := 1; p <= 9; p++ {
			b.publish("camp", Event{Job: id, State: StatusRunning, Progress: float64(p) / 10})
		}
		b.publish("camp", Event{Job: id, State: StatusDone, Progress: 1, Terminal: true})
	}
	hist, sub := b.subscribe("camp")
	sub.Close()
	if len(hist) > 64 {
		t.Fatalf("history = %d events, want <= 64", len(hist))
	}
	terminals := map[string]bool{}
	queued := map[string]bool{}
	lastSeq := uint64(0)
	for _, ev := range hist {
		if ev.Seq <= lastSeq {
			t.Fatalf("replay seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Terminal {
			terminals[ev.Job] = true
		}
		if ev.State == StatusQueued {
			queued[ev.Job] = true
		}
	}
	if len(terminals) != jobs {
		t.Fatalf("replay retains %d terminal events, want all %d (progress frames must be compacted first)", len(terminals), jobs)
	}
	if len(queued) != jobs {
		t.Fatalf("replay retains %d queued events, want all %d", len(queued), jobs)
	}
}
