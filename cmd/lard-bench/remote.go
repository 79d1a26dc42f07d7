package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"lard"
	"lard/internal/server"
)

// remoteFigure submits the figure matrix as ONE campaign to a lard-server
// at base URL and renders the requested figure tables from the service,
// performing zero local simulations. Progress comes from the campaign's
// SSE event stream (GET /v1/campaigns/{id}/events): replayed history
// catches the client up, then live per-member instructions-retired events
// drive a progress bar until the campaign-terminal event. The client is
// deliberately dumb about capacity: it re-POSTs the same matrix on 429
// (the server sheds load when its queue is full and continues the fan-out
// on resubmission), and if the event stream is unavailable — an older
// server, a proxy that buffers — it degrades to the polling loop.
func remoteFigure(base string, fig string, spec lard.CampaignSpec, trace bool) error {
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}

	// Submit until fully enqueued (202), or already complete (200).
	var view server.CampaignView
	for {
		code, err := postJSON(base+"/v1/campaigns", body, &view)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusTooManyRequests:
			fmt.Fprintf(os.Stderr, "lard-bench: %d/%d members accepted, server queue full, retrying\n",
				view.Total-view.Counts[server.StatusPending], view.Total)
			time.Sleep(time.Second)
			continue
		default:
			return fmt.Errorf("remote submit: HTTP %d: %s", code, view.Error)
		}
		break
	}
	fmt.Fprintf(os.Stderr, "lard-bench: campaign %s: %d members\n", view.ID, view.Total)

	if !view.Complete {
		if err := watchCampaign(base, &view); err != nil {
			fmt.Fprintf(os.Stderr, "lard-bench: event stream unavailable (%v), falling back to polling\n", err)
			if err := pollCampaign(base, &view, body); err != nil {
				return err
			}
		}
	}
	if err := failedMember(view); err != nil {
		return err
	}

	metrics := map[string][]string{
		"6": {"energy"}, "7": {"time"}, "all": {"energy", "time"},
	}[fig]
	for _, metric := range metrics {
		var tbl struct {
			Table string `json:"table"`
		}
		code, err := getJSON(base+"/v1/campaigns/"+view.ID+"/table?metric="+metric, &tbl)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("remote table: HTTP %d", code)
		}
		fmt.Println(tbl.Table)
	}
	if trace {
		if err := renderWaterfall(base, view); err != nil {
			return err
		}
		return renderTimelines(base, view)
	}
	return nil
}

// watchCampaign consumes the campaign's SSE stream, rendering a live
// progress bar from per-member instructions-retired events until the
// campaign-terminal frame, then refreshes the final view. Returns an error
// only when the stream cannot be established or dies early — the caller
// falls back to polling.
func watchCampaign(base string, view *server.CampaignView) error {
	resp, err := sseClient.Get(base + "/v1/campaigns/" + view.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}

	bar := newProgressBar(os.Stderr, view.Total, isTerminal(os.Stderr))
	// Member fraction ledger: terminal members pin at 1.
	frac := make(map[string]float64, view.Total)
	done := make(map[string]bool, view.Total)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id: lines, heartbeats, separators
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("decode event: %w", err)
		}
		if ev.Job == "" && ev.Terminal {
			// Campaign complete (or failed); the final GET below reports.
			bar.finish()
			code, err := getJSON(base+"/v1/campaigns/"+view.ID, view)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("final view: HTTP %d", code)
			}
			return nil
		}
		if ev.Job == "" {
			continue
		}
		switch {
		case ev.Terminal:
			done[ev.Job] = true
			frac[ev.Job] = 1
		default:
			frac[ev.Job] = ev.Progress
		}
		overall := 0.0
		for _, f := range frac {
			overall += f
		}
		bar.update(len(done), overall/float64(view.Total), ev.Benchmark, ev.Scheme)
	}
	bar.finish()
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended before the campaign completed")
}

// pollCampaign is the legacy completion loop: poll the view, re-POSTing
// the matrix while members are pending (part-filled fan-outs and evicted
// job records only progress on re-POST).
func pollCampaign(base string, viewp *server.CampaignView, body []byte) error {
	view := *viewp
	for !view.Complete {
		// Failed AND cancelled members are both terminal-but-not-done:
		// without this check the campaign never completes and the loop
		// would poll an unchanging view forever.
		if err := failedMember(view); err != nil {
			return err
		}
		time.Sleep(time.Second)
		if view.Counts[server.StatusPending] > 0 {
			// Pending members are not progressing on their own — a
			// part-filled fan-out, or a member whose job record aged out of
			// the server's registry. Re-POSTing the matrix re-ensures them;
			// everything already done or in flight is simply attached to.
			code, err := postJSON(base+"/v1/campaigns", body, &view)
			if err != nil {
				return err
			}
			if code != http.StatusOK && code != http.StatusAccepted && code != http.StatusTooManyRequests {
				return fmt.Errorf("remote re-submit: HTTP %d: %s", code, view.Error)
			}
		} else {
			code, err := getJSON(base+"/v1/campaigns/"+view.ID, &view)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("remote poll: HTTP %d", code)
			}
		}
		fmt.Fprintf(os.Stderr, "lard-bench: %d/%d done (%d cached, %d running, %d queued, %d pending)\n",
			view.Counts[server.StatusDone], view.Total, view.Cached,
			view.Counts[server.StatusRunning], view.Counts[server.StatusQueued],
			view.Counts[server.StatusPending])
	}
	*viewp = view
	return nil
}

// failedMember returns an error naming the first failed or cancelled
// member of view, or nil when every member is done or still in flight.
func failedMember(view server.CampaignView) error {
	for _, m := range view.Members {
		if m.Status == server.StatusFailed || m.Status == server.StatusCancelled {
			return fmt.Errorf("remote member %s/%s %s: %s", m.Benchmark, m.Scheme, m.Status, m.Error)
		}
	}
	return nil
}

// progressBar reports campaign progress to w: overall fraction, members
// done, and the member that advanced most recently. On a terminal it
// redraws one line in place; elsewhere (a file, a pipe) it writes nothing
// until finish, which prints one summary line.
type progressBar struct {
	w       io.Writer
	total   int
	tty     bool
	updated bool
	done    int
	overall float64
}

func newProgressBar(w io.Writer, total int, tty bool) *progressBar {
	return &progressBar{w: w, total: total, tty: tty}
}

// isTerminal reports whether f is a character device, where a bar redrawn
// with carriage returns reads as one line.
func isTerminal(f *os.File) bool {
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (p *progressBar) update(done int, overall float64, bench, scheme string) {
	p.updated, p.done, p.overall = true, done, overall
	if !p.tty {
		return
	}
	const width = 30
	filled := min(int(overall*width), width)
	fmt.Fprintf(p.w, "\r[%s%s] %5.1f%%  %d/%d members  %s/%s          ",
		strings.Repeat("#", filled), strings.Repeat("-", width-filled),
		overall*100, done, p.total, bench, scheme)
}

func (p *progressBar) finish() {
	switch {
	case !p.updated:
	case p.tty:
		fmt.Fprintln(p.w)
	default:
		fmt.Fprintf(p.w, "lard-bench: campaign progress %.1f%%, %d/%d members done\n", p.overall*100, p.done, p.total)
	}
}

// httpClient bounds every request: campaign responses are small (the heavy
// work is asynchronous), so a stalled connection must fail the call rather
// than hang the poll loop forever.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// sseClient has no overall timeout — an event stream legitimately lives
// for the whole campaign — but still bounds the dial and response-header
// wait so a dead server fails fast. Heartbeats keep live streams moving.
var sseClient = &http.Client{
	Transport: &http.Transport{
		ResponseHeaderTimeout: 30 * time.Second,
	},
}

// postJSON POSTs body and decodes the response into out.
func postJSON(url string, body []byte, out any) (int, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return decodeJSON(resp, out)
}

// getJSON GETs url and decodes the response into out.
func getJSON(url string, out any) (int, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, err
	}
	return decodeJSON(resp, out)
}

func decodeJSON(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s response: %w (%s)", resp.Request.URL, err, b)
	}
	return resp.StatusCode, nil
}
