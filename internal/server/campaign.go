// Campaign endpoints: submit a whole benchmark x scheme matrix — one
// figure's worth of runs — as a single job with fan-out, progress counters
// and figure-style table rendering. The fan-out, per-member accounting and
// completion events live in internal/engine; these handlers translate
// HTTP.
//
//	POST /v1/campaigns             body = lard.CampaignSpec; expands into
//	                               content-addressed member runs and fans
//	                               them out through the engine. 200 when
//	                               every member is already done (all served
//	                               from the store), 202 while any is
//	                               pending, 429 when the queue filled before
//	                               every member was enqueued (the campaign
//	                               stays registered part-filled; re-POST the
//	                               same body to continue the fan-out).
//	GET  /v1/campaigns/{id}        per-member status plus aggregate counters
//	                               (pending/queued/running/done/failed/
//	                               cancelled, cached, campaign progress).
//	GET  /v1/campaigns/{id}/table  render a completed campaign as a
//	                               figure-style table (?metric=time|energy),
//	                               normalized to the S-NUCA column when the
//	                               campaign has one; an auto_asr campaign's
//	                               ASR cells report the lowest-EDP level,
//	                               as the local figures do; 409 until
//	                               complete.
//
// A campaign's id is content-addressed over its sorted member keys, so
// resubmitting a figure's matrix attaches to the in-flight campaign — or,
// once computed, answers instantly from the store.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"lard"
	"lard/internal/engine"
	"lard/internal/harness"
)

// CampaignMemberView is the wire representation of one member run.
type CampaignMemberView = engine.CampaignMemberView

// CampaignView is the wire representation of a campaign.
type CampaignView = engine.CampaignView

// handleCampaignSubmit implements POST /v1/campaigns.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var spec lard.CampaignSpec
	if !decodeBody(w, r, "campaign", &spec) {
		return
	}
	// The expansion validates every scheme through the single-run path.
	members, err := lard.ExpandCampaign(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := lard.CampaignKeyFor(members)

	if err := s.engine.RegisterCampaign(id, members); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	shed := false
	for _, m := range members {
		sh, err := s.engine.EnsureMember(id, m)
		if errors.Is(err, errShuttingDown) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// A shed only means the queue is full — keep going: members whose
		// results are already in the store materialize as done without
		// touching the queue, so one part-filled POST still completes every
		// cached member.
		if sh {
			shed = true
		}
	}

	view, ok, err := s.engine.Campaign(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		// Evicted between registration and render: only possible under a
		// pathological registration storm; the client should resubmit.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("campaign %q evicted during fan-out, resubmit", id))
		return
	}
	switch {
	case shed:
		view.Error = "run queue is full; campaign partially enqueued, re-POST to continue"
		writeJSON(w, http.StatusTooManyRequests, view)
	case view.Complete:
		writeJSON(w, http.StatusOK, view)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

// handleCampaignGet implements GET /v1/campaigns/{id}.
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok, err := s.engine.Campaign(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q (resubmit its matrix to rebuild it)", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// campaignTableView is the GET /v1/campaigns/{id}/table body.
type campaignTableView struct {
	ID       string             `json:"id"`
	Metric   string             `json:"metric"`
	Table    string             `json:"table"`
	Averages map[string]float64 `json:"averages"`
}

// handleCampaignTable implements GET /v1/campaigns/{id}/table: the
// completed campaign rendered as a figure-style table through the same
// builders that regenerate the paper's figures locally.
func (s *Server) handleCampaignTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	metric := r.URL.Query().Get("metric")
	var title string
	var value func(*lard.Result) float64
	switch metric {
	case "", "time":
		metric = "time"
		title = "Figure 7-style: completion time"
		value = func(res *lard.Result) float64 { return float64(res.CompletionCycles) }
	case "energy":
		title = "Figure 6-style: energy"
		value = func(res *lard.Result) float64 { return res.EnergyTotalPJ() }
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown metric %q (use time or energy)", metric))
		return
	}

	data, ok, err := s.engine.CampaignResults(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	if !data.Complete {
		// Be actionable: failed or pending members never complete through
		// polling alone — only re-POSTing the matrix re-enqueues them.
		writeError(w, http.StatusConflict, s.engine.CampaignIncompleteError(id))
		return
	}

	baseline := ""
	for _, l := range data.Labels {
		if l == "S-NUCA" {
			baseline = l
			break
		}
	}
	if baseline != "" {
		title += " (normalized to S-NUCA)"
	} else {
		title += " (absolute)"
	}
	table, avg := harness.RenderNormalizedTable(title, data.Benches, data.Labels, baseline,
		func(bench, label string) float64 { return value(data.Results[bench][label]) })
	writeJSON(w, http.StatusOK, campaignTableView{ID: id, Metric: metric, Table: table, Averages: avg})
}
