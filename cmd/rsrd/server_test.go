package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
)

func postJob(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("no job id")
	}
	return out.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) cluster.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDaemonJobLifecycle(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, nil, nil, testLogger(), 30*time.Second).routes())
	defer ts.Close()

	id := postJob(t, ts, `{"workload": "twolf", "method": "None",
		"total": 400000, "seed": 1,
		"regimen": {"ClusterSize": 2000, "NumClusters": 10}}`)

	deadline := time.Now().Add(2 * time.Minute)
	var st cluster.JobStatus
	for {
		st = getStatus(t, ts, id)
		if st.Status != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Status != "done" {
		t.Fatalf("status = %s (error %q)", st.Status, st.Error)
	}
	if st.Result == nil || st.Result.Sampled == nil || st.Result.Sampled.IPCEstimate() <= 0 {
		t.Fatalf("bad result: %+v", st.Result)
	}

	// Resubmitting the identical job reuses the cached result immediately.
	id2 := postJob(t, ts, `{"workload": "twolf", "method": "None",
		"total": 400000, "seed": 1,
		"regimen": {"ClusterSize": 2000, "NumClusters": 10}}`)
	if id2 != id {
		t.Fatalf("content address changed: %s vs %s", id2, id)
	}

	// The same submission under a named strategy is another job, whose
	// result is the strategy's outcome.
	id3 := postJob(t, ts, `{"workload": "twolf", "method": "None", "strategy": "ranked-set",
		"total": 400000, "seed": 1,
		"regimen": {"ClusterSize": 2000, "NumClusters": 10}}`)
	if id3 == id {
		t.Fatal("a strategy job shares the unnamed job's content address")
	}
	for st = getStatus(t, ts, id3); st.Status == "pending"; st = getStatus(t, ts, id3) {
		if time.Now().After(deadline) {
			t.Fatal("strategy job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Status != "done" || st.Result.Outcome == nil || st.Result.Outcome.Strategy != "ranked-set" || st.Result.IPC() <= 0 {
		t.Fatalf("strategy job: status %s (error %q), result %+v", st.Status, st.Error, st.Result)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Done != 2 {
		t.Fatalf("stats.Done = %d, want 2", stats.Done)
	}
}

// TestDaemonDrainGraceful is the drain acceptance test: once drain begins,
// readiness flips and submissions are refused with 503 + Retry-After, but
// the in-flight job completes within the drain budget and its result stays
// pollable.
func TestDaemonDrainGraceful(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	s := newServer(eng, nil, nil, testLogger(), 42*time.Second)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	statusOf := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := statusOf("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz before drain = %d", c)
	}
	if c := statusOf("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz before drain = %d", c)
	}

	// A real job is in flight when the drain begins.
	id := postJob(t, ts, `{"workload": "gcc", "method": "None",
		"total": 2000000, "seed": 1,
		"regimen": {"ClusterSize": 2000, "NumClusters": 20}}`)
	s.beginDrain()

	if c := statusOf("/healthz"); c != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness is unconditional)", c)
	}
	if c := statusOf("/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", c)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload": "twolf", "method": "None", "total": 400000,
			"regimen": {"ClusterSize": 2000, "NumClusters": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "42" {
		t.Errorf("503 during drain: Retry-After = %q, want %q (the configured -drain-timeout)", ra, "42")
	}

	// The in-flight job finishes inside the drain budget...
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if !eng.Quiesce(dctx) {
		t.Fatal("engine did not quiesce within the drain budget")
	}
	// ...and its result is still retrievable after the drain.
	st := getStatus(t, ts, id)
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("in-flight job after drain: status=%s err=%q", st.Status, st.Error)
	}
}

// TestDaemonReadyzReflectsPeerConnectivity pins peer-mode readiness: a
// worker whose coordinator relationship is healthy reports ready, and one
// whose coordinator became unreachable reports 503 — so fleet health rollups
// show the partition instead of a green worker pulling nothing.
func TestDaemonReadyzReflectsPeerConnectivity(t *testing.T) {
	co := cluster.NewCoordinator(cluster.CoordinatorOptions{
		HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()
	cts := httptest.NewServer(cluster.NewServer(co, nil, testLogger()).Routes())

	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	p, err := cluster.NewPeer(cluster.PeerOptions{
		Node: "w1", Coordinator: cts.URL, Engine: eng,
		HeartbeatEvery: 20 * time.Millisecond, PollEvery: 10 * time.Millisecond,
		Log: testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s := newServer(eng, nil, nil, testLogger(), 30*time.Second)
	s.setPeer(p)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	statusOf := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := statusOf(); c != http.StatusOK {
		t.Fatalf("readyz with healthy coordinator = %d, want 200", c)
	}

	// The coordinator vanishes; after enough failed heartbeats the peer flips
	// to its reconnect machine and readiness follows.
	cts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for statusOf() != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 while the coordinator was unreachable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.Connected() {
		t.Error("peer still reports connected to a dead coordinator")
	}
}

func TestDaemonRejectsBadJobs(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, nil, nil, testLogger(), 30*time.Second).routes())
	defer ts.Close()

	for _, body := range []string{
		`{"workload": "nope"}`,
		`{"workload": "twolf", "method": "bogus label"}`,
		`{"workload": "twolf", "strategy": "bogus-strategy"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}

	// A body past cluster.MaxBodyBytes is refused unread, and no job starts.
	big := `{"workload": "twolf", "method": "None", "total": 400000` +
		strings.Repeat(" ", cluster.MaxBodyBytes) + `}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	if st := eng.Stats(); st.CacheMisses+st.CacheHits+st.Coalesced != 0 {
		t.Errorf("engine stats after the refused bodies = %+v, want no submission", st)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}
