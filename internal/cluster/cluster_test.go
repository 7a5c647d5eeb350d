package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rsr/internal/cas"
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
		Machine:  sampling.DefaultMachine(),
		Total:    400_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 10},
		Seed:     seed,
	}
}

// resultReport is node's successful completion report for id, carrying a
// minimal result that passes engine.Result.Verify.
func resultReport(t *testing.T, node, id string) CompleteRequest {
	t.Helper()
	blob, err := json.Marshal(engine.Result{JobHash: id, Kind: engine.JobSampled, Sampled: &sampling.RunResult{}})
	if err != nil {
		t.Fatal(err)
	}
	return CompleteRequest{Node: node, ID: id, BlobSum: cas.Sum(blob), Result: blob}
}

// fakeComplete reports a successful completion of id from node.
func fakeComplete(t *testing.T, co *Coordinator, node, id string) {
	t.Helper()
	if err := co.Complete(resultReport(t, node, id)); err != nil {
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

// sweepMembers reads the coordinator's sweep table: the IDs of the items that
// joined the sweep under tag, in joining order, and whether that sweep exists.
func sweepMembers(co *Coordinator, tag string) ([]string, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	sw := co.sweeps[tag]
	if sw == nil {
		return nil, false
	}
	return slices.Clone(sw.ids), true
}

// TestHeartbeatWorkerTelemetry pins the one path by which a worker's engine
// state reaches the coordinator: the engine depth a heartbeat reports land in the node state and are exported per node on
// /metrics, and a later heartbeat that omits the fields (an older worker, or
// an idle one) zeroes them rather than leaving a stale reading.
func TestHeartbeatWorkerTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 2, HeartbeatTimeout: time.Hour, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()

	families := []string{"rsr_cluster_node_engine_queued", "rsr_cluster_node_engine_running"}
	if err := co.Heartbeat(Heartbeat{Node: "a", Protocol: ProtocolVersion,
		QueueDepth: 3, Inflight: 2}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 2} {
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

	id1, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(unitJob(2), ""); err != nil {
		t.Fatal(err)
	}
	// Queue full: the third submission is refused.
	if _, err := co.Submit(unitJob(3), ""); err != ErrBusy {
		t.Fatalf("third submit: err = %v, want ErrBusy", err)
	}
	// Duplicates coalesce even against a full queue.
	dup, err := co.Submit(unitJob(1), "")
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

	id1, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := co.Submit(unitJob(2), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(unitJob(3), ""); err != ErrBusy {
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
		id, err := co.Submit(unitJob(int64(i)), "")
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

// TestSchedulerRefusesUnverifiableBlobs pins the coordinator's half of the
// result contract: result bytes that do not hash to the report's sum, do not
// decode, decode to another job's result or to a result with no payload are
// refused with ErrBadBlob (409) and never stored; the item stays running,
// and the verified bytes of a good report land in the store under their sum.
func TestSchedulerRefusesUnverifiableBlobs(t *testing.T) {
	st := cas.NewStore(t.TempDir())
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Store: st, Log: testLogger()})
	defer co.Close()
	routes := NewServer(co, nil, testLogger()).Routes()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	other, _ := json.Marshal(engine.Result{JobHash: "deadbeef", Kind: engine.JobSampled, Sampled: &sampling.RunResult{}})
	bare, _ := json.Marshal(engine.Result{JobHash: id, Kind: engine.JobSampled})
	flipped := resultReport(t, "a", id)
	flipped.Result[len(flipped.Result)/2] ^= 1
	for _, tc := range []struct {
		name string
		req  CompleteRequest
		want string
	}{
		{"another job's result", CompleteRequest{Node: "a", ID: id, BlobSum: cas.Sum(other), Result: other}, "result of job"},
		{"a flipped byte", flipped, "do not hash"},
		{"bytes that do not decode", CompleteRequest{Node: "a", ID: id,
			BlobSum: cas.Sum([]byte("{not json")), Result: []byte("{not json")}, "decode"},
		{"no bytes", CompleteRequest{Node: "a", ID: id, BlobSum: strings.Repeat("ab", 32)}, "do not hash"},
		{"a result with no payload", CompleteRequest{Node: "a", ID: id, BlobSum: cas.Sum(bare), Result: bare}, "no payload"},
	} {
		body, _ := json.Marshal(tc.req)
		rec := httptest.NewRecorder()
		routes.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/peers/complete", bytes.NewReader(body)))
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("%s: %d %s, want 409 (%s)", tc.name, rec.Code, rec.Body, tc.want)
		}
		if b, err := st.Get(cas.Sum(tc.req.Result)); err == nil {
			t.Fatalf("%s: the refused bytes were stored: %q", tc.name, b)
		}
	}
	// The item is still running and completable.
	good := resultReport(t, "a", id)
	if err := co.Complete(good); err != nil {
		t.Fatal(err)
	}
	if stj, _ := co.Status(id); stj.Status != "done" {
		t.Fatalf("status = %s after good blob", stj.Status)
	}
	if b, err := st.Get(good.BlobSum); err != nil || !bytes.Equal(b, good.Result) {
		t.Fatalf("stored result = %q, %v; want the report's bytes", b, err)
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
	id1, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := co.Submit(unitJob(2), "")
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
	id, err := co.Submit(unitJob(1), "")
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
	// A stray "success" carrying a valid result is likewise dropped.
	if err := co.Complete(resultReport(t, "evil", id)); err != nil {
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
	id, err := co.Submit(unitJob(1), "")
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
	late := resultReport(t, "a", id)
	if err := co.Complete(late); err != nil {
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
	if err := co.Complete(late); err != nil {
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
	dir := t.TempDir()
	st := cas.NewStore(dir)
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker: 8, HeartbeatTimeout: time.Hour, Store: st, Log: testLogger(),
	})
	defer co.Close()
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "kept")
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
	if ids, ok := sweepMembers(co, "kept"); !ok || !slices.Equal(ids, []string{id}) {
		t.Errorf("sweep a day later = %v, %v; want its one member", ids, ok)
	}
	// The result blob is on disk, and only there: the decoded result on the
	// item is the one copy the coordinator holds in memory.
	path := filepath.Join(dir, "blobs", blobSum)
	if err := os.Rename(path, path+".away"); blobSum == "" || err != nil {
		t.Fatalf("result blob %.12q not on disk a day later: %v", blobSum, err)
	}
	if b, err := st.Get(blobSum); !errors.Is(err, cas.ErrNotFound) {
		t.Errorf("store served %d bytes from memory with the disk copy gone: %v", len(b), err)
	}
	if err := os.Rename(path+".away", path); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(blobSum); err != nil {
		t.Errorf("result blob %.12q not in the store a day later: %v", blobSum, err)
	}
	beat(t, co, "b")
	if id2, err := co.Submit(unitJob(1), ""); err != nil || id2 != id {
		t.Fatalf("resubmit: id %.12s err %v, want %.12s <nil>", id2, err, id)
	}
	if it := co.Pull("b"); it != nil {
		t.Fatalf("resubmitted finished job leased again: %+v", it)
	}
}

// TestPeerResendsResultOnUnverifiedCompletion pins the worker half of the
// ErrBadBlob contract: when the coordinator refuses a completion because the
// result bytes do not verify (409), the peer resends the bytes it kept in
// scope — giving up would strand the job forever on a single-worker cluster
// (the node keeps heartbeating, so the lease is never reaped) — and the
// resend lands without running the job again.
func TestPeerResendsResultOnUnverifiedCompletion(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: 2 * time.Second, Log: testLogger()})
	defer co.Close()
	var flipped int
	_, codes, executed, err := runOneWorker(t, co, func(req *CompleteRequest) {
		if req.Result != nil && flipped < 1 {
			flipped++
			req.Result[len(req.Result)/2] ^= 1
		}
	})
	if err != nil {
		t.Fatalf("wait after 409 resend: %v", err)
	}
	if !slices.Equal(codes, []int{http.StatusConflict, http.StatusNoContent}) {
		t.Errorf("completion answers = %v, want a 409 then a 204", codes)
	}
	if executed != 1 {
		t.Errorf("the job ran %d times, want 1", executed)
	}
}

// TestPeerRefusedCompletionFailsItem pins what happens when every report is
// corrupted on its way: each has a byte of its result flipped. The peer gives
// up after repeated refusals by reporting a transient failure, so the item is
// requeued within its budget and then fails with the refusal — it does not
// stay pending on a one-worker fabric whose only node keeps heartbeating.
func TestPeerRefusedCompletionFailsItem(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second, MaxRequeues: 1, Log: testLogger(), Metrics: reg,
	})
	defer co.Close()
	id, codes, executed, err := runOneWorker(t, co, func(req *CompleteRequest) {
		if req.Result != nil {
			req.Result[len(req.Result)/2] ^= 1
		}
	})
	if err == nil || !strings.Contains(err.Error(), "result blob refused") {
		t.Fatalf("wait = %v, want the job failed with the blob refusal", err)
	}
	if st, _ := co.Status(id); st.Status != "failed" {
		t.Fatalf("status = %s, want failed", st.Status)
	}
	if got := metricValue(reg, "rsr_cluster_requeues_total"); got != 1 {
		t.Errorf("requeues = %v, want 1 (the budget)", got)
	}
	refused := 0
	for _, c := range codes {
		if c == http.StatusConflict {
			refused++
		}
	}
	// Two leases, four refusals each; the second lease is an engine cache hit.
	if refused != 8 || executed != 1 {
		t.Errorf("%d reports refused, %d executions; want 4 for each of 2 leases, 1 execution (answers %v)",
			refused, executed, codes)
	}
}

// TestPeerRetriesCompletionOnStoreWriteFailure pins the retryable half: a
// coordinator whose store fails to write a verified result answers 503 and
// records nothing, the holder keeps its lease and resends, and the job
// completes with one execution.
func TestPeerRetriesCompletionOnStoreWriteFailure(t *testing.T) {
	st := cas.NewStore(t.TempDir())
	st.Fault = fault.New(1, fault.Rule{Point: fault.CacheWrite, Kind: fault.KindError, Prob: 1, Count: 1})
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: 2 * time.Second, Store: st, Log: testLogger()})
	defer co.Close()
	_, codes, executed, err := runOneWorker(t, co, nil)
	if err != nil {
		t.Fatalf("wait after a failed store write: %v", err)
	}
	if !slices.Equal(codes, []int{http.StatusServiceUnavailable, http.StatusNoContent}) {
		t.Errorf("completion answers = %v, want a 503 then a 204", codes)
	}
	if executed != 1 {
		t.Errorf("the job ran %d times, want 1", executed)
	}
}

// TestFailedJobRunsOnce pins that an engine failure is final on the fabric: a
// job whose every run panics runs once, under the coordinator's default
// requeue budget, and fails with the panic's message. A deterministic job
// that failed once would fail on any node, so requeueing it only repeats it.
func TestFailedJobRunsOnce(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{}, 0)
	plan := fault.New(1, fault.Rule{Point: fault.JobRun, Kind: fault.KindPanic, Prob: 1})
	f.addPeer(t, PeerOptions{Node: "w"}, plan)

	cl := NewClient(f.ts.URL, nil)
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err == nil || !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("wait = %v, want the job failed with the injected panic", err)
	}
	if n := plan.FiredAt(fault.JobRun); n != 1 {
		t.Errorf("the job ran %d times, want 1", n)
	}
}

// runOneWorker runs one small job on a one-worker fabric whose coordinator
// is reached through a proxy that hands every completion report to alter
// (nil = none) before passing it on. It returns the job's ID, the status each
// report was answered with, how many jobs the worker's engine executed, and
// the outcome of waiting for the job.
func runOneWorker(t *testing.T, co *Coordinator, alter func(*CompleteRequest)) (string, []int, int64, error) {
	t.Helper()
	inner := NewServer(co, nil, testLogger()).Routes()
	var mu sync.Mutex
	var codes []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/peers/complete" {
			inner.ServeHTTP(w, r)
			return
		}
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("proxy: %v", err)
		}
		if alter != nil {
			alter(&req)
		}
		body, _ := json.Marshal(req)
		r.Body = io.NopCloser(bytes.NewReader(body))
		sw := &statusWriter{ResponseWriter: w}
		inner.ServeHTTP(sw, r)
		mu.Lock()
		codes = append(codes, sw.status)
		mu.Unlock()
	}))
	defer ts.Close()

	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	p, err := NewPeer(PeerOptions{
		Node: "w", Coordinator: ts.URL, Engine: eng,
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

	cl := NewClient(ts.URL, nil)
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(ctx)
	// The last report's answer is recorded once its handler returns, which
	// the server's close waits for.
	p.Close()
	ts.Close()
	mu.Lock()
	defer mu.Unlock()
	return tk.Hash(), slices.Clone(codes), eng.Stats().Done, err
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
	cl := NewClient(f.ts.URL, nil)
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

	v, err := NewClient(ts.URL, nil).Handshake(context.Background())
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

// TestSubmitZeroWidthMachine400: a job whose machine can never move an
// instruction is a bad request, not a job that wedges a worker.
func TestSubmitZeroWidthMachine400(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Log: testLogger()})
	defer co.Close()
	ts := httptest.NewServer(NewServer(co, nil, testLogger()).Routes())
	defer ts.Close()

	job := unitJob(1)
	job.Machine.CPU.FetchWidth = 0
	b, _ := json.Marshal(job)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "FetchWidth") {
		t.Errorf("zero-width job: status %d, body %q; want 400 naming FetchWidth", resp.StatusCode, body)
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

// TestOversizedBodiesRefused413 pins the bound on what the coordinator
// decodes: a job, heartbeat or pull body past MaxBodyBytes is answered 413
// and changes nothing — no job queued, no worker registered, no lease taken.
func TestOversizedBodiesRefused413(t *testing.T) {
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Log: testLogger()})
	defer co.Close()
	ts := httptest.NewServer(NewServer(co, nil, testLogger()).Routes())
	defer ts.Close()
	queued, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	before := co.StatusSnapshot()

	pad := strings.Repeat(" ", MaxBodyBytes)
	job, _ := json.Marshal(unitJob(2))
	for path, body := range map[string]string{
		"/v1/jobs":            pad + string(job),
		"/v1/peers/heartbeat": `{"node":"big","protocol":` + fmt.Sprint(ProtocolVersion) + `,"addr":"` + pad + `"}`,
		"/v1/peers/pull":      `{"node":"big"}` + pad + `{}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if after := co.StatusSnapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("status after the refused bodies = %+v, want unchanged %+v", after, before)
	}
	if st, _ := co.Status(queued); st.Status != "pending" {
		t.Errorf("queued job = %s, want still pending", st.Status)
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

// fabric is an in-process cluster: one coordinator behind httptest and n
// peers, each with its own engine.
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
// its own faults); its two-worker engine injects engFault (nil = none).
func (f *fabric) addPeer(t *testing.T, po PeerOptions, engFault fault.Injector) *Peer {
	t.Helper()
	return f.join(t, po, engine.New(engine.Options{
		Workers: 2,
		Fault:   engFault,
	}))
}

// join starts a worker named by po over eng; the fabric closes both.
func (f *fabric) join(t *testing.T, po PeerOptions, eng *engine.Engine) *Peer {
	t.Helper()
	f.engines = append(f.engines, eng)
	po.Coordinator, po.Engine, po.Log = f.ts.URL, eng, f.log
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
// methods, one full baseline, and one strategy job — the adaptive two-pass
// design, whose Outcome must cross the wire and the CAS like any other result.
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
// contract: a sweep scheduled across two peer workers produces results
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
	cl := NewClient(url, nil)
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

// TestSweepTagReachesWorkerSpans pins the one correlation tag: the sweep tag
// a client sets rides its submission, the coordinator's item and the lease
// into the executing worker's engine, whose spans for the job all carry it.
func TestSweepTagReachesWorkerSpans(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{HeartbeatTimeout: 2 * time.Second}, 0)
	tr := obs.NewTracer(0)
	f.join(t, PeerOptions{Node: "w"}, engine.New(engine.Options{Workers: 1, Tracer: tr}))

	cl := NewClient(f.ts.URL, nil)
	cl.SetSweep("sweep-42")
	cl.pollEvery = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := cl.Submit(ctx, sweepJobs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	all, tagged := tr.Dump(""), tr.Dump("sweep-42")
	names := map[string]int{}
	for _, sp := range tagged {
		names[sp.Name]++
	}
	if names["cache-load"] != 1 || names["job-run"] != 1 {
		t.Errorf("worker engine spans under the sweep tag: %v; want one cache-load and one job-run", names)
	}
	if len(all) != len(tagged) {
		t.Errorf("%d of the worker's %d spans lack the sweep tag", len(all)-len(tagged), len(all))
	}
}

// TestPeerPullsPerEngineWorker pins a worker's appetite: a peer runs one pull
// loop per engine worker, so over a 3-worker engine it holds 3 leases at
// once while a fourth job waits in the coordinator's queue.
func TestPeerPullsPerEngineWorker(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{HeartbeatTimeout: time.Hour}, 0)
	stall := fault.New(1, fault.Rule{Point: fault.JobRun, Kind: fault.KindLatency, Prob: 1, Latency: time.Hour})
	f.join(t, PeerOptions{Node: "w"}, engine.New(engine.Options{Workers: 3, Fault: stall}))
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := f.co.Submit(unitJob(seed), ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.co.StatusSnapshot()
		if len(st.Nodes) == 1 && st.Nodes[0].Inflight == 3 && st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status = %+v; want the worker holding 3 leases and 1 job queued", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // idle pull loops would have leased the fourth by now
	if st := f.co.StatusSnapshot(); st.Nodes[0].Inflight != 3 || st.Queued != 1 {
		t.Fatalf("status = %+v; want 3 leases held and 1 job queued", st)
	}
}

// TestRemoteWaitVerifiesResult: a coordinator's answer is a result from
// outside the process, so Wait returns a "done" result only if it passes
// engine.Result.Verify for the job it waits on.
func TestRemoteWaitVerifiesResult(t *testing.T) {
	job := unitJob(1)
	id := job.Hash()
	for _, tc := range []struct {
		name string
		res  engine.Result
		want string // "" = accepted
	}{
		{"verified", engine.Result{JobHash: id, Kind: engine.JobSampled, Sampled: &sampling.RunResult{}}, ""},
		{"no payload", engine.Result{JobHash: id, Kind: engine.JobSampled}, "no payload"},
		{"another job's", engine.Result{JobHash: "deadbeef", Kind: engine.JobSampled, Sampled: &sampling.RunResult{}}, "result of job"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
					return
				}
				WriteJSON(w, http.StatusOK, JobStatus{ID: id, Status: "done", Result: &tc.res})
			}))
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			tk, err := NewClient(ts.URL, nil).Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Wait(ctx)
			switch {
			case tc.want == "" && (err != nil || res.JobHash != id):
				t.Fatalf("Wait = %+v, %v; want the result", res, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Wait = %+v, %v; want an error (%s)", res, err, tc.want)
			}
		})
	}
}
