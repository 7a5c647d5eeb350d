package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rsr/internal/engine"
	"rsr/internal/obs"
)

// testLogger keeps request-log lines out of test output.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// metricsServer builds a daemon wired the way main() wires it: one registry
// shared by the engine and the /metrics endpoint.
func metricsServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Workers: 2, Metrics: reg})
	ts := httptest.NewServer(newServer(eng, reg, nil, testLogger(), 30*time.Second).routes())
	return ts, func() { ts.Close(); eng.Close() }
}

// TestMetricsEndpoint submits a job and scrapes /metrics, checking the
// content type and the metric families the CI smoke job greps for.
func TestMetricsEndpoint(t *testing.T) {
	ts, stop := metricsServer(t)
	defer stop()

	id := postJob(t, ts, `{"workload": "twolf", "method": "R$BP (100%)",
		"total": 400000, "seed": 1,
		"regimen": {"ClusterSize": 2000, "NumClusters": 10}}`)
	waitDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`rsr_engine_jobs_total{state="done"} 1`,
		`rsr_engine_cache_total{result="miss"} 1`,
		`rsr_engine_job_seconds_count{state="done"} 1`,
		"rsr_sampling_phase_seconds_bucket",
		"rsr_sampling_clusters_total 10",
		"rsr_warmup_recon_applied_total",
		"rsr_cache_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// waitDone polls the job status endpoint until the job finishes.
func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.Status {
		case "done":
			return
		case "failed":
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
}

// TestRequestIDs pins the logging satellite's visible half: every response
// carries an X-Request-ID, a client-supplied ID is echoed back, and issued
// IDs are distinct.
func TestRequestIDs(t *testing.T) {
	ts, stop := metricsServer(t)
	defer stop()

	get := func(withID string) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if withID != "" {
			req.Header.Set("X-Request-ID", withID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}

	a, b := get(""), get("")
	if a == "" || b == "" {
		t.Fatal("responses missing X-Request-ID")
	}
	if a == b {
		t.Fatalf("request IDs not unique: %q", a)
	}
	if got := get("client-supplied-7"); got != "client-supplied-7" {
		t.Fatalf("client ID not echoed: got %q", got)
	}
}
