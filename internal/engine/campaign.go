// Campaign scheduling: a campaign is a set of member runs sharing the
// common job machinery, plus per-campaign accounting (which members this
// campaign got for free) and campaign-level completion events on the bus.
package engine

import (
	"errors"
	"fmt"

	"lard"
)

// maxCampaigns bounds the campaign registry; the oldest registration is
// evicted beyond it. Like evicted jobs, an evicted campaign is not lost
// work: resubmitting its matrix rebuilds it from the store.
const maxCampaigns = 1024

// ErrUnknownCampaign reports an id absent from the campaign registry.
var ErrUnknownCampaign = errors.New("unknown campaign")

// campaign is the internal campaign record. The identity fields are
// immutable after construction; the maps are guarded by the engine mutex.
type campaign struct {
	id      string
	benches []string // row order (expansion order)
	labels  []string // column order
	// members are the expanded member runs; each one's live state lives in
	// the shared job registry under its key.
	members []lard.CampaignMember
	// enrolled marks members this campaign has already attached to or
	// enqueued in some submission; cachedAttach marks the subset whose run
	// was already computed at first enrollment (by an earlier direct
	// submission or another campaign): the campaign got those without
	// simulating, so they count as cached even though the job itself was
	// not a store hit. Tracking enrollment per campaign keeps the
	// accounting correct across part-fill (shed) continuation re-POSTs.
	enrolled     map[string]bool
	cachedAttach map[string]bool
	// terminal records each member's final status as its terminal event
	// fires (or as it is found already done at enrollment), surviving job
	// registry eviction: campaign completion must not regress because a
	// member's job record aged out.
	terminal map[string]string
	// announced marks that the campaign-level terminal event for the
	// current completion has been published (reset when a member reopens).
	announced bool
}

// newCampaign indexes the expanded members into a campaign record.
func newCampaign(id string, members []lard.CampaignMember) *campaign {
	c := &campaign{
		id:           id,
		enrolled:     make(map[string]bool),
		cachedAttach: make(map[string]bool),
		terminal:     make(map[string]string),
	}
	seenB := make(map[string]bool)
	seenL := make(map[string]bool)
	for _, m := range members {
		if !seenB[m.Benchmark] {
			seenB[m.Benchmark] = true
			c.benches = append(c.benches, m.Benchmark)
		}
		if !seenL[m.Label] {
			seenL[m.Label] = true
			c.labels = append(c.labels, m.Label)
		}
	}
	c.members = members
	return c
}

// CampaignMemberView is the wire representation of one member run.
type CampaignMemberView struct {
	ID        string `json:"id"`
	Benchmark string `json:"benchmark"`
	// Scheme is the member's column label, with the level appended for
	// the candidates of an auto-tuned ASR column ("ASR@0.25").
	Scheme string `json:"scheme"`
	Status string `json:"status"`
	// Progress is the member's instructions-retired fraction in [0,1].
	Progress float64 `json:"progress"`
	Cached   bool    `json:"cached"`
	Error    string  `json:"error,omitempty"`
}

// CampaignView is the wire representation of a campaign: aggregate
// progress counters plus per-member status. Cached counts the done members
// that were served from the store rather than simulated for this campaign,
// so Counts["done"] == Total with Cached == Total means the whole figure
// cost zero simulations.
type CampaignView struct {
	ID     string         `json:"id"`
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
	Cached int            `json:"cached"`
	// Progress is the campaign-level instructions-retired fraction:
	// terminal members count 1, in-flight members their current fraction.
	Progress float64              `json:"progress"`
	Complete bool                 `json:"complete"`
	Error    string               `json:"error,omitempty"`
	Members  []CampaignMemberView `json:"members"`
}

// finalize recomputes the aggregate counters from the member views.
func (v *CampaignView) finalize() {
	v.Counts = map[string]int{
		StatusPending: 0, StatusQueued: 0, StatusRunning: 0,
		StatusDone: 0, StatusFailed: 0, StatusCancelled: 0,
	}
	v.Cached = 0
	v.Progress = 0
	for _, m := range v.Members {
		v.Counts[m.Status]++
		if m.Status == StatusDone && m.Cached {
			v.Cached++
		}
		if terminal(m.Status) {
			v.Progress++
		} else {
			v.Progress += m.Progress
		}
	}
	if v.Total > 0 {
		v.Progress /= float64(v.Total)
	}
	v.Complete = v.Counts[StatusDone] == v.Total
}

// campaignViewLocked renders a campaign from the job registry alone.
// Callers hold e.mu and should prefer campaignView, which adds the store
// fallback for evicted member jobs.
func (e *Engine) campaignViewLocked(c *campaign) CampaignView {
	v := CampaignView{ID: c.id, Total: len(c.members)}
	for _, m := range c.members {
		// Cached comes exclusively from the campaign's own accounting
		// (cachedAttach, recorded at each member's first enrollment) and
		// never from the job record: after registry eviction a re-POST
		// legitimately recreates a member's job from the store with
		// cached=true, and trusting that flag would launder a member this
		// campaign simulated into the cached count.
		mv := CampaignMemberView{
			ID: m.Key, Benchmark: m.Benchmark, Scheme: m.Name,
			Status: StatusPending, Cached: c.cachedAttach[m.Key],
		}
		if j, ok := e.jobs[m.Key]; ok {
			mv.Status, mv.Error, mv.Progress = j.status, j.err, j.progress
		} else if st, ok := c.terminal[m.Key]; ok && st == StatusDone {
			// Evicted after completion; the terminal ledger remembers.
			mv.Status, mv.Progress = StatusDone, 1
		}
		v.Members = append(v.Members, mv)
	}
	v.finalize()
	return v
}

// Campaign renders a campaign, consulting the job registry first and the
// store for members whose job records were evicted after completion: the
// registry only covers polling windows, but a computed member must never
// flip a finished campaign back to pending while the store still holds its
// result. Store faults propagate rather than masquerading as pending
// members. ok=false for unknown campaign ids.
func (e *Engine) Campaign(id string) (CampaignView, bool, error) {
	e.mu.Lock()
	c, ok := e.campaigns[id]
	if !ok {
		e.mu.Unlock()
		return CampaignView{}, false, nil
	}
	v := e.campaignViewLocked(c)
	// Snapshot which pending members were ever enrolled: only those can be
	// evicted-after-done. Never-enrolled members (shed by a part-filled
	// submission) were just established as store misses by Submit, so
	// probing them again would double the fan-out's I/O for nothing.
	enrolled := make(map[string]bool, len(c.members))
	for _, m := range c.members {
		enrolled[m.Key] = c.enrolled[m.Key]
	}
	e.mu.Unlock()
	changed := false
	for i := range v.Members {
		m := &v.Members[i]
		if m.Status != StatusPending || !enrolled[m.ID] {
			continue
		}
		// The member's Cached flag is NOT forced here: it carries the
		// campaign's own cachedAttach record, so a member this campaign
		// simulated stays counted as a simulation after eviction.
		_, ok, err := lard.StoredByKey(e.store, m.ID)
		if err != nil {
			return CampaignView{}, true, err
		}
		if ok {
			m.Status, m.Progress = StatusDone, 1
			changed = true
		}
	}
	if changed {
		v.finalize()
	}
	return v, true, nil
}

// RegisterCampaign registers (or attaches to) the campaign with the given
// id and expanded members, returning its record handle for EnsureMember.
// Registration is idempotent: resubmitting a matrix attaches to the
// existing record. The registry is bounded; the oldest campaign is evicted
// beyond maxCampaigns, releasing its event topic and member fan-out.
func (e *Engine) RegisterCampaign(id string, members []lard.CampaignMember) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return ErrShuttingDown
	}
	if _, ok := e.campaigns[id]; ok {
		return nil
	}
	c := newCampaign(id, members)
	e.campaignsSeen++
	e.campaigns[id] = c
	e.campOrder = append(e.campOrder, c)
	for _, m := range c.members {
		camps, ok := e.memberCamps[m.Key]
		if !ok {
			camps = make(map[string]bool, 1)
			e.memberCamps[m.Key] = camps
		}
		camps[id] = true
	}
	for len(e.campOrder) > maxCampaigns {
		old := e.campOrder[0]
		e.campOrder = e.campOrder[1:]
		if cur, ok := e.campaigns[old.id]; ok && cur == old {
			e.evictCampaignLocked(old)
		}
	}
	return nil
}

// evictCampaignLocked drops a campaign record, its member fan-out entries
// and its event topic. Callers hold e.mu.
func (e *Engine) evictCampaignLocked(c *campaign) {
	delete(e.campaigns, c.id)
	for _, m := range c.members {
		if camps, ok := e.memberCamps[m.Key]; ok {
			delete(camps, c.id)
			if len(camps) == 0 {
				delete(e.memberCamps, m.Key)
			}
		}
	}
	e.bus.release(c.id)
}

// EnsureMember guarantees one member run of campaign id is progressing,
// through the exact same path as a direct run submission (Submit): an
// existing job is attached to, a stored result materializes a completed
// job, a novel run is admitted, and failed jobs re-enqueue for retry. A
// member found already done at its first enrollment into this campaign is
// recorded as a cached attach — including members first reached by a
// continuation re-POST after a part-fill. It reports shed=true when the
// queue is full (the member stays pending, not enrolled).
func (e *Engine) EnsureMember(id string, m lard.CampaignMember) (shed bool, err error) {
	// Claim the enrollment BEFORE ensuring: a concurrent submission of the
	// same campaign must not also see first=true, race our enqueued job to
	// completion, and mark a member this campaign simulated as cached.
	e.mu.Lock()
	c, ok := e.campaigns[id]
	if !ok {
		e.mu.Unlock()
		return false, ErrUnknownCampaign
	}
	first := !c.enrolled[m.Key]
	c.enrolled[m.Key] = true
	e.mu.Unlock()

	req := Request{Benchmark: m.Benchmark, Scheme: m.Scheme, Options: m.Options}
	view, shed, err := e.Submit(m.Key, req)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil || shed {
		// Roll the claim back only while the member truly has no job: a
		// concurrent submission of the same campaign may have enqueued it
		// between our claim and our shed, and erasing that enrollment
		// would let a later re-POST miscount the campaign's own simulation
		// as cached.
		if first {
			if _, exists := e.jobs[m.Key]; !exists {
				delete(c.enrolled, m.Key) // nothing enrolled; the next POST retries
			}
		}
		return shed, err
	}
	// view.Cached covers both ways the campaign got this member for free:
	// attached to an already-done job, or materialized straight from the
	// store. Recording it here (not just while the job record lives) keeps
	// the Cached counter truthful after registry eviction.
	if first && view.Cached {
		c.cachedAttach[m.Key] = true
	}
	if terminal(view.Status) {
		// Attached to an already-terminal job: its terminal event fired
		// before this campaign existed (or before this member enrolled),
		// so record it in the ledger now.
		c.terminal[m.Key] = view.Status
		e.campaignCompletionLocked(c)
	}
	return false, nil
}

// campaignMemberTerminalLocked records a member's terminal status in every
// owning campaign's ledger and publishes campaign-level completion events.
// Callers hold e.mu.
func (e *Engine) campaignMemberTerminalLocked(key, status string) {
	for campID := range e.memberCamps[key] {
		c, ok := e.campaigns[campID]
		if !ok {
			continue
		}
		c.terminal[key] = status
		e.campaignCompletionLocked(c)
	}
}

// campaignReopenLocked clears a member's terminal ledger entry when its
// job re-enqueues (failed/cancelled retry): the campaign is live again and
// will announce completion anew. Callers hold e.mu.
func (e *Engine) campaignReopenLocked(key string) {
	for campID := range e.memberCamps[key] {
		if c, ok := e.campaigns[campID]; ok {
			delete(c.terminal, key)
			c.announced = false
		}
	}
}

// campaignCompletionLocked publishes the campaign-level terminal event
// once every member is terminal: state done when every member completed,
// failed otherwise. Callers hold e.mu.
func (e *Engine) campaignCompletionLocked(c *campaign) {
	if c.announced || len(c.terminal) != len(c.members) {
		return
	}
	c.announced = true
	state := StatusDone
	for _, st := range c.terminal {
		if st != StatusDone {
			state = StatusFailed
			break
		}
	}
	e.bus.publish(c.id, Event{Campaign: c.id, State: state, Progress: 1, Terminal: true})
}

// CampaignResults collects a completed campaign's reported results for
// table rendering, resolving evicted job records from the store.
// complete=false when any member is not done (the view explains why).
type CampaignResults struct {
	Benches []string
	Labels  []string
	// Results[bench][label] is the result the cell reports: the member
	// lard.ReportedMembers picks (an auto-tuned column's best candidate).
	Results  map[string]map[string]*lard.Result
	Complete bool
}

// CampaignResults gathers every member result of the campaign with the
// given id and applies the campaign's pick. ok=false for unknown ids; a
// store fault is an error.
func (e *Engine) CampaignResults(id string) (CampaignResults, bool, error) {
	e.mu.Lock()
	c, ok := e.campaigns[id]
	if !ok {
		e.mu.Unlock()
		return CampaignResults{}, false, nil
	}
	out := CampaignResults{
		Benches: append([]string(nil), c.benches...),
		Labels:  append([]string(nil), c.labels...),
		Results: make(map[string]map[string]*lard.Result, len(c.benches)),
	}
	// A nil entry is an evicted job record, resolved from the store below.
	results := make([]*lard.Result, len(c.members))
	for i, m := range c.members {
		j, ok := e.jobs[m.Key]
		if !ok {
			continue
		}
		if j.status != StatusDone || j.result == nil {
			e.mu.Unlock()
			return out, true, nil
		}
		results[i] = j.result
	}
	e.mu.Unlock()
	for i, m := range c.members {
		if results[i] != nil {
			continue
		}
		res, ok, err := lard.StoredByKey(e.store, m.Key)
		if err != nil {
			return CampaignResults{}, true, err
		}
		if !ok {
			return out, true, nil
		}
		results[i] = res
	}
	reported := lard.ReportedMembers(c.members, func(i int) (float64, uint64) {
		return results[i].EnergyTotalPJ(), results[i].CompletionCycles
	})
	for i, m := range c.members {
		if reported[i] != i {
			continue
		}
		if out.Results[m.Benchmark] == nil {
			out.Results[m.Benchmark] = make(map[string]*lard.Result, len(c.labels))
		}
		out.Results[m.Benchmark][m.Label] = results[i]
	}
	out.Complete = true
	return out, true, nil
}

// CampaignIncompleteError renders the actionable 409 message for a table
// request against an incomplete campaign.
func (e *Engine) CampaignIncompleteError(id string) error {
	v, ok, err := e.Campaign(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownCampaign, id)
	}
	return fmt.Errorf(
		"campaign %q is not complete (%d/%d done, %d failed, %d cancelled, %d pending); poll GET /v1/campaigns/%s, re-POSTing the matrix to retry failed, cancelled or pending members",
		id, v.Counts[StatusDone], v.Total, v.Counts[StatusFailed], v.Counts[StatusCancelled], v.Counts[StatusPending], id)
}
