package main

import (
	"bytes"
	"strings"
	"testing"

	"lard/internal/server"
)

// TestFailedMember: a failed or a cancelled member is an error naming the
// member and its status; members that are done or in flight are not.
func TestFailedMember(t *testing.T) {
	view := server.CampaignView{Members: []server.CampaignMemberView{
		{Benchmark: "BARNES", Scheme: "S-NUCA", Status: server.StatusDone},
		{Benchmark: "BARNES", Scheme: "RT-3", Status: server.StatusRunning},
		{Benchmark: "DEDUP", Scheme: "S-NUCA", Status: server.StatusPending},
	}}
	if err := failedMember(view); err != nil {
		t.Fatalf("no member failed, got %v", err)
	}
	for _, status := range []string{server.StatusFailed, server.StatusCancelled} {
		view.Members[1].Status, view.Members[1].Error = status, "boom"
		err := failedMember(view)
		if err == nil {
			t.Fatalf("%s member not reported", status)
		}
		if msg := err.Error(); !strings.Contains(msg, "BARNES/RT-3 "+status) || !strings.Contains(msg, "boom") {
			t.Fatalf("%s member: error %q does not name the member, status and cause", status, msg)
		}
	}
}

// TestProgressBarOffTerminal: off a terminal the bar writes no carriage
// returns, only one summary line when the campaign ends.
func TestProgressBarOffTerminal(t *testing.T) {
	var buf bytes.Buffer
	bar := newProgressBar(&buf, 3, false)
	for i, f := range []float64{0.1, 0.5, 0.9, 1} {
		bar.update(i, f, "BARNES", "RT-3")
	}
	if buf.Len() != 0 {
		t.Fatalf("bar wrote %q before the campaign ended", buf.String())
	}
	bar.finish()
	out := buf.String()
	if strings.Contains(out, "\r") {
		t.Fatalf("off-terminal output holds a carriage return: %q", out)
	}
	if want := "lard-bench: campaign progress 100.0%, 3/3 members done\n"; out != want {
		t.Fatalf("summary = %q, want %q", out, want)
	}
}

// TestProgressBarOnTerminal: on a terminal each update redraws the line in
// place, and finish ends it.
func TestProgressBarOnTerminal(t *testing.T) {
	var buf bytes.Buffer
	bar := newProgressBar(&buf, 2, true)
	bar.update(1, 0.5, "DEDUP", "S-NUCA")
	bar.update(2, 1, "DEDUP", "RT-3")
	bar.finish()
	out := buf.String()
	if n := strings.Count(out, "\r"); n != 2 {
		t.Fatalf("%d redraws, want 2: %q", n, out)
	}
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("finish must end the bar's line once: %q", out)
	}
}

// TestProgressBarSilentWithoutUpdates: a campaign that ends before any
// member reports progress prints nothing.
func TestProgressBarSilentWithoutUpdates(t *testing.T) {
	for _, tty := range []bool{false, true} {
		var buf bytes.Buffer
		newProgressBar(&buf, 2, tty).finish()
		if buf.Len() != 0 {
			t.Fatalf("tty=%v: wrote %q", tty, buf.String())
		}
	}
}
