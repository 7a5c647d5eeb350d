package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsr/internal/engine"
	"rsr/internal/fault"
	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// unitJob builds a valid job with a distinct hash per seed, for scheduler
// unit tests that never execute it.
func unitJob(seed int64) engine.Job {
	return engine.Job{
		Kind:     engine.JobSampled,
		Workload: "twolf",
		Total:    400_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 10},
		Seed:     seed,
	}
}

// fakeComplete stores a minimal decodable result blob for id and reports a
// successful completion from node.
func fakeComplete(t *testing.T, co *Coordinator, node, id string) {
	t.Helper()
	blob, err := json.Marshal(engine.Result{JobHash: id, Kind: engine.JobSampled})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := co.Store().Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Complete(CompleteRequest{Node: node, ID: id, BlobSum: sum}); err != nil {
		t.Fatalf("complete: %v", err)
	}
}

// metricValue sums a family's series values in a registry snapshot.
func metricValue(reg *obs.Registry, name string) float64 {
	var total float64
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, s := range m.Series {
			total += s.Value
		}
	}
	return total
}

func beat(t *testing.T, co *Coordinator, node string) {
	t.Helper()
	if err := co.Heartbeat(Heartbeat{Node: node, Protocol: ProtocolVersion}); err != nil {
		t.Fatalf("heartbeat %s: %v", node, err)
	}
}

// TestHeartbeatWorkerTelemetry pins the one path by which a worker's engine
// state reaches the coordinator: the engine depth, shard usage and capacity a
// heartbeat reports land in the node state and are exported per node on
// /metrics, and a later heartbeat that omits the fields (an older worker, or
// an idle one) zeroes them rather than leaving a stale reading.
func TestHeartbeatWorkerTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 2, HeartbeatTimeout: time.Hour, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()

	families := []string{"rsr_cluster_node_engine_queued", "rsr_cluster_node_engine_running",
		"rsr_cluster_node_shards_inuse", "rsr_cluster_node_shard_capacity"}
	if err := co.Heartbeat(Heartbeat{Node: "a", Protocol: ProtocolVersion,
		QueueDepth: 3, Inflight: 2, ShardsInUse: 6, ShardCapacity: 8}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 2, 6, 8} {
		if got := metricValue(reg, families[i]); got != want {
			t.Errorf("%s = %v, want %v", families[i], got, want)
		}
	}

	beat(t, co, "a") // no telemetry fields
	for _, fam := range families {
		if got := metricValue(reg, fam); got != 0 {
			t.Errorf("%s after field-less heartbeat = %v, want 0", fam, got)
		}
	}
}

// TestCoordinatorMetricsDoNotDialWorkers pins that a scrape of the
// coordinator reports only what it holds: a live worker whose advertised
// address accepts connections and never answers costs the scrape nothing, and
// its engine depth is still there, from its heartbeat.
func TestCoordinatorMetricsDoNotDialWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Never Accept'ed: the kernel completes a dialer's handshake from the
	// backlog, and no byte ever comes back.
	defer ln.Close()

	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 2, HeartbeatTimeout: time.Hour, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()
	ts := httptest.NewServer(NewServer(co, reg, testLogger()).Routes())
	defer ts.Close()
	if err := co.Heartbeat(Heartbeat{Node: "w1", Protocol: ProtocolVersion,
		Addr: "http://" + ln.Addr().String(), QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if took := time.Since(begin); took >= 250*time.Millisecond {
		t.Errorf("GET /metrics took %v with one silent worker, want < 250ms", took)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := `rsr_cluster_node_engine_queued{node="w1"} 4`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, body)
	}
}

func TestSchedulerBackpressure(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 2, HeartbeatTimeout: time.Hour, Log: testLogger(),
		Metrics: obs.NewRegistry(),
	})
	defer co.Close()
	beat(t, co, "a")

	id1, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(unitJob(2), "", ""); err != nil {
		t.Fatal(err)
	}
	// Queue full: the third submission is refused.
	if _, err := co.Submit(unitJob(3), "", ""); err != ErrBusy {
		t.Fatalf("third submit: err = %v, want ErrBusy", err)
	}
	// Duplicates coalesce even against a full queue.
	dup, err := co.Submit(unitJob(1), "", "")
	if err != nil || dup != id1 {
		t.Fatalf("duplicate submit: id %s err %v, want %s <nil>", dup, err, id1)
	}
}

// TestQueueHoldsWorkBeforeWorkers pins the no-workers half of the bound: with
// nobody live the queue admits QueuePerWorker items, then refuses; the first
// worker's pulls take them oldest first, with no heartbeat needed to move
// anything into its reach.
func TestQueueHoldsWorkBeforeWorkers(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 2, HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()

	id1, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := co.Submit(unitJob(2), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(unitJob(3), "", ""); err != ErrBusy {
		t.Fatalf("third submit with no workers: err = %v, want ErrBusy", err)
	}
	for i, want := range []string{id1, id2} {
		if it := co.Pull("a"); it == nil || it.ID != want {
			t.Fatalf("pull %d = %+v, want %.12s (oldest first)", i, it, want)
		}
	}
	if it := co.Pull("a"); it != nil {
		t.Fatalf("pull from an empty queue = %+v, want nothing", it)
	}
}

// TestIdleWorkerPullsOldestQueued pins that a late joiner is never starved:
// work accepted while only one worker was live is not tied to that worker,
// so a second worker's first pull gets the oldest queued item and completes
// it.
func TestIdleWorkerPullsOldestQueued(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()
	beat(t, co, "a")
	ids := make([]string, 4)
	for i := range ids {
		id, err := co.Submit(unitJob(int64(i)), "", "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	beat(t, co, "b")
	it := co.Pull("b")
	if it == nil || it.ID != ids[0] {
		t.Fatalf("late joiner pulled %+v, want the oldest queued item %.12s", it, ids[0])
	}
	fakeComplete(t, co, "b", it.ID)
	if st, ok := co.Status(it.ID); !ok || st.Status != "done" || st.Result == nil {
		t.Fatalf("late joiner's item status = %+v", st)
	}
	if it := co.Pull("a"); it == nil || it.ID != ids[1] {
		t.Fatalf("next pull = %+v, want %.12s", it, ids[1])
	}
}

func TestSchedulerRefusesUnverifiableBlobs(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Log: testLogger()})
	defer co.Close()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	// A blob that decodes to a different job's result must be refused.
	blob, _ := json.Marshal(engine.Result{JobHash: "deadbeef", Kind: engine.JobSampled})
	sum, _ := co.Store().Put(blob)
	err = co.Complete(CompleteRequest{Node: "a", ID: id, BlobSum: sum})
	if err == nil || !strings.Contains(err.Error(), "result of job") {
		t.Fatalf("mismatched blob: err = %v, want ErrBadBlob", err)
	}
	// A sum that is not in the store at all is likewise refused.
	err = co.Complete(CompleteRequest{Node: "a", ID: id,
		BlobSum: strings.Repeat("ab", 32)})
	if err == nil {
		t.Fatal("absent blob: want error")
	}
	// The item is still running and completable.
	fakeComplete(t, co, "a", id)
	if st, _ := co.Status(id); st.Status != "done" {
		t.Fatalf("status = %s after good blob", st.Status)
	}
}

// TestPullSkipsStaleQueueEntries pins that a queue entry whose item stopped
// being queued while the reference waited (finalized, or re-leased after
// racing back from a reaped node) is discarded at pull time instead of
// leased: re-leasing it would regress a terminal item to running, re-execute
// it, and double-close its done channel on the second completion.
func TestPullSkipsStaleQueueEntries(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()
	beat(t, co, "a")
	id1, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := co.Submit(unitJob(2), "", "")
	if err != nil {
		t.Fatal(err)
	}
	// Finalize the first item while its reference still sits in the queue.
	co.mu.Lock()
	co.finalize(co.items[id1], nil, "failed elsewhere")
	co.mu.Unlock()

	if it := co.Pull("a"); it == nil || it.ID != id2 {
		t.Fatalf("pull = %+v, want the live item %.12s", it, id2)
	}
	if again := co.Pull("a"); again != nil {
		t.Fatalf("second pull = %+v, want nothing (stale entry discarded)", again)
	}
	if st, _ := co.Status(id1); st.Status != "failed" {
		t.Fatalf("finalized item status = %s, want failed (not clobbered)", st.Status)
	}
}

// TestCompleteRequiresLease pins the holder check: a completion — success or
// failure — from a node that holds no lease on the item is dropped, so a
// stray or stale report can neither fail nor decide work it does not own.
func TestCompleteRequiresLease(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	// A stray permanent failure for a queued item must not kill it.
	if err := co.Complete(CompleteRequest{Node: "evil", ID: id, Error: "boom"}); err != nil {
		t.Fatalf("stray failure: %v", err)
	}
	if st, _ := co.Status(id); st.Status != "pending" {
		t.Fatalf("status after stray failure = %s, want pending", st.Status)
	}
	// A stray "success" naming a valid blob is likewise dropped.
	blob, _ := json.Marshal(engine.Result{JobHash: id, Kind: engine.JobSampled})
	sum, _ := co.Store().Put(blob)
	if err := co.Complete(CompleteRequest{Node: "evil", ID: id, BlobSum: sum}); err != nil {
		t.Fatalf("stray success: %v", err)
	}
	if st, _ := co.Status(id); st.Status != "pending" {
		t.Fatalf("status after stray success = %s, want pending", st.Status)
	}
	if got := metricValue(reg, "rsr_cluster_stale_completes_total"); got != 2 {
		t.Errorf("stale completes metric = %v, want 2", got)
	}
	// The real holder still completes it.
	if it := co.Pull("a"); it == nil || it.ID != id {
		t.Fatalf("lease = %+v, want %.12s", it, id)
	}
	fakeComplete(t, co, "a", id)
	if st, _ := co.Status(id); st.Status != "done" {
		t.Fatalf("status = %s, want done", st.Status)
	}
}

// TestReapedNodeLateCompletionDoesNotClobberRequeue replays the lease-race
// scenario end to end: a reaped-but-alive node's late success must not
// finalize an item that was requeued — the requeued copy
// owns the item — and running the requeued copy to completion must neither
// regress state nor panic on a double finalize. A report from the reaped
// node after the item finished is a late copy: counted and dropped.
func TestReapedNodeLateCompletionDoesNotClobberRequeue(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil || it.ID != id {
		t.Fatalf("lease = %+v, want %.12s", it, id)
	}
	// a goes silent and is reaped: its lease is released and the item
	// requeued.
	co.mu.Lock()
	co.nodes["a"].lastBeat = time.Now().Add(-2 * time.Hour)
	co.mu.Unlock()
	co.reap(time.Now())
	beat(t, co, "b")
	// a was alive all along and reports its success late: dropped.
	blob, _ := json.Marshal(engine.Result{JobHash: id, Kind: engine.JobSampled})
	sum, _ := co.Store().Put(blob)
	if err := co.Complete(CompleteRequest{Node: "a", ID: id, BlobSum: sum}); err != nil {
		t.Fatalf("late success: %v", err)
	}
	if st, _ := co.Status(id); st.Status != "pending" {
		t.Fatalf("status after late success = %s, want pending (requeued copy owns the item)", st.Status)
	}
	// b runs the requeued copy to completion; no regression, no panic.
	if it := co.Pull("b"); it == nil || it.ID != id {
		t.Fatalf("requeued lease = %+v, want %.12s", it, id)
	}
	fakeComplete(t, co, "b", id)
	if st, _ := co.Status(id); st.Status != "done" {
		t.Fatalf("final status = %s, want done", st.Status)
	}
	if err := co.Complete(CompleteRequest{Node: "a", ID: id, BlobSum: sum}); err != nil {
		t.Fatalf("late copy after b finished: %v", err)
	}
	if got := metricValue(reg, "rsr_cluster_late_completes_total"); got != 1 {
		t.Errorf("late completes metric = %v, want 1", got)
	}
	if got := metricValue(reg, "rsr_cluster_stale_completes_total"); got != 1 {
		t.Errorf("stale completes metric = %v, want 1 (the report while requeued)", got)
	}
}

// TestFinishedWorkStaysPollable pins what the coordinator keeps: a finished
// item, its sweep and its result blob stay for the coordinator's lifetime,
// however long the reaper has run since, and a resubmission of the job
// coalesces onto the finished item instead of running it again.
func TestFinishedWorkStaysPollable(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "", "kept")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil || it.ID != id {
		t.Fatalf("lease = %+v", it)
	}
	fakeComplete(t, co, "a", id)
	co.mu.Lock()
	blobSum := co.items[id].blobSum
	co.mu.Unlock()

	co.reap(time.Now().Add(24 * time.Hour))
	if st, ok := co.Status(id); !ok || st.Status != "done" || st.Result == nil {
		t.Fatalf("status a day later = %+v, %v; want done with its result", st, ok)
	}
	if sw, ok := co.SweepStatus("kept"); !ok || sw.Total != 1 || sw.Done != 1 {
		t.Errorf("sweep a day later = %+v, %v; want its one member done", sw, ok)
	}
	if blobSum == "" || !co.Store().Has(blobSum) {
		t.Errorf("result blob %.12q not resident a day later", blobSum)
	}
	beat(t, co, "b")
	if id2, err := co.Submit(unitJob(1), "", ""); err != nil || id2 != id {
		t.Fatalf("resubmit: id %.12s err %v, want %.12s <nil>", id2, err, id)
	}
	if it := co.Pull("b"); it != nil {
		t.Fatalf("resubmitted finished job leased again: %+v", it)
	}
}

// TestPeerReuploadsBlobOnUnverifiedCompletion pins the worker half of the
// ErrBadBlob contract: when the coordinator refuses a completion because it
// cannot verify the result blob (409), the peer re-uploads the bytes it kept
// in scope and retries — re-sending the identical doomed report would strand
// the job forever on a single-worker cluster (the node keeps heartbeating,
// so the lease is never reaped).
func TestPeerReuploadsBlobOnUnverifiedCompletion(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: 2 * time.Second, Log: testLogger()})
	defer co.Close()
	_, evicted, err := runEvictingOneWorker(t, co, 1)
	if err != nil {
		t.Fatalf("wait after 409 re-upload: %v", err)
	}
	if evicted != 1 {
		t.Fatalf("intercepted %d successful completions, want 1", evicted)
	}
}

// TestPeerRefusedCompletionFailsItem pins what happens when the blob path is
// broken for good: every completion's result blob is evicted before the
// coordinator reads it. The peer gives up after repeated refusals by
// reporting a transient failure, so the item is requeued within its budget
// and then fails with the refusal — it does not stay pending on a
// one-worker fabric whose only node keeps heartbeating.
func TestPeerRefusedCompletionFailsItem(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second, MaxRequeues: 1, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()
	id, _, err := runEvictingOneWorker(t, co, -1)
	if err == nil || !strings.Contains(err.Error(), "result blob refused") {
		t.Fatalf("wait = %v, want the job failed with the blob refusal", err)
	}
	if st, _ := co.Status(id); st.Status != "failed" {
		t.Fatalf("status = %s, want failed", st.Status)
	}
	if got := metricValue(reg, "rsr_cluster_requeues_total"); got != 1 {
		t.Errorf("requeues = %v, want 1 (the budget)", got)
	}
}

// runEvictingOneWorker runs one small job on a one-worker fabric whose
// coordinator is reached through a proxy that evicts the result blob a
// successful completion report names before passing the report on: the
// first limit such reports, or every one when limit < 0. It returns the
// job's ID, how many reports had their blob evicted, and the outcome of
// waiting for the job.
func runEvictingOneWorker(t *testing.T, co *Coordinator, limit int64) (string, int64, error) {
	t.Helper()
	inner := NewServer(co, nil, testLogger()).Routes()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/peers/complete" && (limit < 0 || n.Load() < limit) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req CompleteRequest
			if json.Unmarshal(body, &req) == nil && req.BlobSum != "" {
				n.Add(1)
				co.Store().Evict(req.BlobSum)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	p, err := NewPeer(PeerOptions{
		Node: "w", Coordinator: ts.URL, Engine: eng, Pulls: 1,
		HeartbeatEvery: 50 * time.Millisecond, PollEvery: 10 * time.Millisecond,
		Log: testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	cl := NewClient(ts.URL, "evict-req", nil)
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(ctx)
	return tk.Hash(), n.Load(), err
}

// TestPeerRestartUnderSameNameReleasesLease pins the Hello half of the lease
// rule: a worker that dies holding a lease and comes back as a new process
// under the same node name, well inside the heartbeat timeout, has the old
// process's lease requeued by its first heartbeat, and the one-worker fabric
// finishes the job. Without it the new process would keep the dead one's
// lease alive with every heartbeat.
func TestPeerRestartUnderSameNameReleasesLease(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{HeartbeatTimeout: time.Hour}, 0)
	dead := f.addPeer(t, PeerOptions{Node: "w",
		Fault: fault.New(1, fault.Rule{Point: fault.NodeKill, Kind: fault.KindError, Prob: 1})}, nil)
	cl := NewClient(f.ts.URL, "restart-req", nil)
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	for !dead.Killed() { // dies right after leasing the job
		select {
		case <-ctx.Done():
			t.Fatal("the first process never leased the job")
		case <-time.After(10 * time.Millisecond):
		}
	}

	f.addPeer(t, PeerOptions{Node: "w"}, nil)
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatalf("job after a same-name restart: %v", err)
	}
	if got := metricValue(f.reg, "rsr_cluster_requeues_total"); got != 1 {
		t.Errorf("requeues = %v, want 1 (the dead process's lease)", got)
	}
	if got := f.engines[1].Stats().Done; got != 1 {
		t.Errorf("the new process executed %d jobs, want 1", got)
	}
}

func TestVersionHandshakeAndProtocolSkew(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Log: testLogger()})
	defer co.Close()
	ts := httptest.NewServer(NewServer(co, nil, testLogger()).Routes())
	defer ts.Close()

	v, err := NewClient(ts.URL, "", nil).Handshake(context.Background())
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if v.Protocol != ProtocolVersion || v.GoVersion == "" {
		t.Fatalf("version = %+v", v)
	}

	// A skewed worker heartbeat is refused with 409.
	body, _ := json.Marshal(Heartbeat{Node: "old", Protocol: ProtocolVersion + 1})
	resp, err := http.Post(ts.URL+"/v1/peers/heartbeat", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("skewed heartbeat status = %d, want 409", resp.StatusCode)
	}
}

func TestSubmitBackpressure503WithRetryAfter(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 1, HeartbeatTimeout: time.Hour, Log: testLogger(),
	})
	defer co.Close()
	ts := httptest.NewServer(NewServer(co, nil, testLogger()).Routes())
	defer ts.Close()

	post := func(seed int64) *http.Response {
		b, _ := json.Marshal(unitJob(seed))
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := post(1)
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", r1.StatusCode)
	}
	r2 := post(2)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestHistQuantileUpperMS pins the nearest-rank quantile bound behind
// journal_fsync_p99_ms: a lone slow sample is its own p99, and only a count
// of 100 or more lets p99 look past the slowest one.
func TestHistQuantileUpperMS(t *testing.T) {
	bounds := []float64{.001, .01, .1}
	for _, tc := range []struct {
		name    string
		samples []float64
		wantMS  float64
	}{
		{"empty", nil, 0},
		{"one sample in the last finite bucket", []float64{.05}, 100},
		{"one sample in the +Inf bucket", []float64{5}, 100},
		{"99 fast and one outlier", append(repeat(.0005, 99), .05), 1},
		{"49 fast and one outlier", append(repeat(.0005, 49), .05), 100},
	} {
		h := obs.NewRegistry().Histogram("h", "test histogram", bounds)
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := histQuantileUpperMS(h.Snapshot(), 0.99); got != tc.wantMS {
			t.Errorf("%s: p99 bound = %v ms, want %v", tc.name, got, tc.wantMS)
		}
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// --- full-fabric tests: coordinator + HTTP + real peers with real engines ---

// fabric is an in-process cluster: one coordinator behind httptest, n peers
// each with its own engine sharing checkpoints through the coordinator CAS.
type fabric struct {
	co      *Coordinator
	ts      *httptest.Server
	reg     *obs.Registry
	log     *slog.Logger
	peers   []*Peer
	engines []*engine.Engine

	closeOnce sync.Once
}

func newFabric(t *testing.T, copts CoordinatorOptions, npeers int) *fabric {
	t.Helper()
	if copts.Log == nil {
		copts.Log = testLogger()
	}
	if copts.Metrics == nil {
		copts.Metrics = obs.NewRegistry()
	}
	co := NewCoordinator(copts)
	ts := httptest.NewServer(NewServer(co, copts.Metrics, copts.Log).Routes())
	f := &fabric{co: co, ts: ts, reg: copts.Metrics, log: copts.Log}
	t.Cleanup(f.close)
	for i := 0; i < npeers; i++ {
		f.addPeer(t, PeerOptions{Node: fmt.Sprintf("peer-%c", 'a'+i)}, nil)
	}
	return f
}

// addPeer starts one more worker on the fabric: po names it (and may arm
// its own faults); its engine, sharing checkpoints through the coordinator
// CAS, injects engFault (nil = none).
func (f *fabric) addPeer(t *testing.T, po PeerOptions, engFault fault.Injector) *Peer {
	t.Helper()
	eng := engine.New(engine.Options{
		Workers:     2,
		Checkpoints: NewCASCheckpoints(f.ts.URL, nil, f.log),
		Fault:       engFault,
	})
	f.engines = append(f.engines, eng)
	po.Coordinator, po.Engine, po.Pulls, po.Log = f.ts.URL, eng, 2, f.log
	po.HeartbeatEvery, po.PollEvery = 50*time.Millisecond, 10*time.Millisecond
	p, err := NewPeer(po)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	f.peers = append(f.peers, p)
	return p
}

func (f *fabric) close() {
	f.closeOnce.Do(func() {
		for _, p := range f.peers {
			p.Close()
		}
		for _, e := range f.engines {
			e.Close()
		}
		f.co.Close()
		f.ts.Close()
	})
}

// sweepJobs is a small mixed sweep: sampled runs across workloads and
// methods (sharded, so checkpoint chains flow through the CAS), one full
// baseline, and one strategy job — the adaptive two-pass design, whose
// Outcome must cross the wire and the CAS like any other result.
func sweepJobs(t *testing.T) []engine.Job {
	t.Helper()
	reg := sampling.Regimen{ClusterSize: 2000, NumClusters: 10}
	var jobs []engine.Job
	for _, wl := range []string{"twolf", "parser"} {
		for _, label := range []string{"None", "R$BP (20%)"} {
			spec, err := warmup.SpecByLabel(label)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, engine.Job{
				Kind:     engine.JobSampled,
				Workload: wl,
				Machine:  sampling.DefaultMachine(),
				Total:    400_000,
				Regimen:  reg,
				Seed:     2007,
				Warmup:   spec,
				Shards:   2,
			})
		}
	}
	jobs = append(jobs, engine.Job{
		Kind: engine.JobFull, Workload: "twolf",
		Machine: sampling.DefaultMachine(), Total: 400_000,
	})
	strategy := jobs[1] // twolf under R$BP (20%)
	strategy.Strategy = "two-phase-stratified"
	return append(jobs, strategy)
}

// canon renders a result in canonical JSON with the legitimately
// nondeterministic wall-clock fields zeroed: the byte-identity comparand.
func canon(t *testing.T, res *engine.Result) string {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	r := *res
	r.Wall = 0
	if r.Sampled != nil {
		cp := *r.Sampled
		cp.Elapsed = 0
		r.Sampled = &cp
	}
	if r.Full != nil {
		cp := *r.Full
		cp.Elapsed = 0
		r.Full = &cp
	}
	if r.Outcome != nil {
		cp := *r.Outcome
		cp.Elapsed, r.Selection = 0, 0
		r.Outcome = &cp
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterSweepByteIdenticalToSingleNode is the fabric's tentpole
// contract: a sweep scheduled across two peer workers — with sharded
// pre-pass checkpoints flowing through the shared CAS — produces results
// byte-identical to the same jobs run on one local engine.
func TestClusterSweepByteIdenticalToSingleNode(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{
		QueuePerWorker: 16, HeartbeatTimeout: 2 * time.Second,
	}, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jobs := sweepJobs(t)
	assertSingleNode(t, ctx, jobs, sweepThrough(t, ctx, f.ts.URL, jobs))

	// Both peers worked the sweep and the per-node families are exposed.
	prom := promText(t, f.ts.URL)
	for _, want := range []string{
		"rsr_cluster_queue_depth 0",
		`rsr_cluster_inflight{node="peer-a"}`,
		`rsr_cluster_inflight{node="peer-b"}`,
		"rsr_cluster_jobs_submitted_total",
		"rsr_cluster_workers 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// sweepThrough submits every job to the coordinator at url before waiting
// on any, then returns their results in canonical form.
func sweepThrough(t *testing.T, ctx context.Context, url string, jobs []engine.Job) []string {
	t.Helper()
	cl := NewClient(url, "sweep-req", nil)
	cl.pollEvery = 10 * time.Millisecond
	tickets := make([]*RemoteTicket, len(jobs))
	for i, j := range jobs {
		tk, err := cl.Submit(ctx, j)
		if err != nil {
			t.Fatalf("submit %s: %v", j.Label(), err)
		}
		tickets[i] = tk
	}
	remote := make([]string, len(jobs))
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %s: %v", jobs[i].Label(), err)
		}
		remote[i] = canon(t, res)
	}
	return remote
}

// assertSingleNode runs the jobs on one local engine and requires each
// result to be byte-identical to the fabric's canonical result.
func assertSingleNode(t *testing.T, ctx context.Context, jobs []engine.Job, remote []string) {
	t.Helper()
	local := engine.New(engine.Options{Workers: 4})
	defer local.Close()
	for i, j := range jobs {
		res, err := local.Run(ctx, j)
		if err != nil {
			t.Fatalf("local %s: %v", j.Label(), err)
		}
		if got := canon(t, res); got != remote[i] {
			t.Errorf("%s: fabric result differs from single-node\nfabric: %s\nlocal:  %s",
				j.Label(), remote[i], got)
		}
	}
}

// promText scrapes the coordinator's /metrics.
func promText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRequestIDPropagatesAcrossNodeHops pins the correlation contract: the
// X-Request-ID a client sends with a submission reappears in the engine
// events of the worker that executed the job, two hops away.
func TestRequestIDPropagatesAcrossNodeHops(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{HeartbeatTimeout: 2 * time.Second}, 1)
	events, cancel := f.engines[0].Subscribe(256)
	defer cancel()

	cl := NewClient(f.ts.URL, "corr-42", nil)
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancelCtx := context.WithTimeout(context.Background(), time.Minute)
	defer cancelCtx()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.RequestID == "corr-42" {
				return
			}
		case <-deadline:
			t.Fatal("no worker engine event carried the client's request ID")
		}
	}
}
