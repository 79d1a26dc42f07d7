package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"lard/internal/resultstore"
	"lard/internal/server"
)

// TestTraceNeedsTracingServer drives both -trace renderers against a
// lard-server started without -trace: each fails with an error that
// names -trace instead of printing an empty table.
func TestTraceNeedsTracingServer(t *testing.T) {
	st, err := resultstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.New(server.Config{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	view := server.CampaignView{Members: []server.CampaignMemberView{
		{ID: "0123456789abcdef", Benchmark: "BARNES", Scheme: "RT-3", Status: server.StatusDone},
	}}
	for name, render := range map[string]func(string, server.CampaignView) error{
		"waterfall": renderWaterfall,
		"timelines": renderTimelines,
	} {
		err := render(ts.URL, view)
		if err == nil {
			t.Fatalf("%s: no error against a server without tracing", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "-trace needs a lard-server started with -trace") ||
			!strings.Contains(msg, "tracing is disabled") {
			t.Fatalf("%s: error %q does not name -trace and the server's hint", name, msg)
		}
	}
}
