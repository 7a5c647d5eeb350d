package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/fault"
	"rsr/internal/obs"
)

// TestChaosNodeKillMidSweepByteIdentical proves the fabric's recovery
// contract: a worker killed after leasing work (via the fault plan's
// node-kill point) loses its leases and queue to the reaper, a survivor
// picks everything up, and the sweep's results are still byte-identical to
// a single-node run.
func TestChaosNodeKillMidSweepByteIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker:   16,
		HeartbeatTimeout: 300 * time.Millisecond,
		Metrics:          reg,
		Log:              testLogger(),
	})
	ts := httptest.NewServer(NewServer(co, reg, testLogger()).Routes())
	defer ts.Close()
	defer co.Close()

	// The victim joins first and alone, so the whole sweep lands on its
	// queue; the armed node-kill point fires on its first lease, before the
	// job reaches the engine.
	engA := engine.New(engine.Options{Workers: 1})
	defer engA.Close()
	victim, err := NewPeer(PeerOptions{
		Node: "peer-a", Coordinator: ts.URL, Engine: engA,
		HeartbeatEvery: 50 * time.Millisecond, PollEvery: 10 * time.Millisecond,
		Fault: fault.New(7, fault.Rule{Point: fault.NodeKill, Kind: fault.KindError, Prob: 1}),
		Log:   testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	cl := NewClient(ts.URL, nil)
	cl.pollEvery = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jobs := sweepJobs(t)
	tickets := make([]*RemoteTicket, len(jobs))
	for i, j := range jobs {
		tk, err := cl.Submit(ctx, j)
		if err != nil {
			t.Fatalf("submit %s: %v", j.Label(), err)
		}
		tickets[i] = tk
	}

	// The victim dies at its first pull; nothing completes until then.
	deadline := time.Now().Add(10 * time.Second)
	for !victim.Killed() {
		if time.Now().After(deadline) {
			t.Fatal("victim was never killed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A healthy survivor joins; the reaper hands it the dead node's leased
	// and queued work.
	engB := engine.New(engine.Options{Workers: 2})
	defer engB.Close()
	survivor, err := NewPeer(PeerOptions{
		Node: "peer-b", Coordinator: ts.URL, Engine: engB,
		HeartbeatEvery: 50 * time.Millisecond, PollEvery: 10 * time.Millisecond,
		Log: testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	remote := make([]string, len(jobs))
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %s after node kill: %v", jobs[i].Label(), err)
		}
		remote[i] = canon(t, res)
	}

	// The chaos actually happened: a node was reaped and its lease requeued.
	if got := metricValue(reg, "rsr_cluster_nodes_lost_total"); got < 1 {
		t.Errorf("nodes lost = %v, want >= 1", got)
	}
	if got := metricValue(reg, "rsr_cluster_requeues_total"); got < 1 {
		t.Errorf("requeues = %v, want >= 1", got)
	}

	// Recovery must not change a single byte of the results.
	assertSingleNode(t, ctx, jobs, remote)
}

// TestChaosCoordKillMidSweepByteIdentical proves the tentpole recovery
// contract from the other side: the COORDINATOR is killed mid-sweep (via the
// coord-kill fault point, which crashes it the instant a completion arrives
// — after real work finished, before its outcome was journaled) while live
// workers hold leases. A replacement coordinator opened on the same journal
// and store replays the sweep, the workers ride out the outage (heartbeat
// failures flip them to the reconnect machine; completion reports retry
// until the restarted coordinator accepts them; each worker's first heartbeat
// to it keeps the journaled leases it still runs), and the sweep finishes
// byte-identical to a single-node run —
// with every job executed exactly once across the fabric: nothing whose
// result reached the CAS is re-run.
func TestChaosCoordKillMidSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	j1, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	co1 := NewCoordinator(CoordinatorOptions{
		QueuePerWorker:   16,
		HeartbeatTimeout: 300 * time.Millisecond,
		Journal:          j1,
		Store:            st,
		Fault:            fault.New(11, fault.Rule{Point: fault.CoordKill, Kind: fault.KindError, Prob: 1, Count: 1}),
		Metrics:          reg1,
		Log:              testLogger(),
	})
	defer co1.Crash()

	// The HTTP endpoint outlives the coordinator behind it, like a fixed
	// host:port across a process restart: the handler is swapped to the
	// replacement coordinator once it is up. In between, the crashed
	// coordinator's 503s are the outage the workers experience. Completion
	// reports wait until both workers have joined, so the kill cannot come
	// before a worker's first heartbeat: each has a connection to lose.
	var handler atomic.Pointer[http.Handler]
	h1 := NewServer(co1, reg1, testLogger()).Routes()
	handler.Store(&h1)
	joined := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/peers/complete" {
			select {
			case <-joined:
			case <-time.After(10 * time.Second):
			}
		}
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()

	// The whole sweep is submitted before any worker joins, so
	// the armed kill (which fires at the first completion, after workers
	// start) always lands mid-sweep with every job already journaled.
	cl := NewClient(ts.URL, nil)
	cl.pollEvery = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jobs := sweepJobs(t)
	tickets := make([]*RemoteTicket, len(jobs))
	for i, j := range jobs {
		tk, err := cl.Submit(ctx, j)
		if err != nil {
			t.Fatalf("submit %s: %v", j.Label(), err)
		}
		tickets[i] = tk
	}

	engines := make([]*engine.Engine, 2)
	peerRegs := make([]*obs.Registry, 2)
	peers := make([]*Peer, 2)
	for i, name := range []string{"peer-a", "peer-b"} {
		engines[i] = engine.New(engine.Options{Workers: 2})
		defer engines[i].Close()
		peerRegs[i] = obs.NewRegistry()
		p, err := NewPeer(PeerOptions{
			Node: name, Coordinator: ts.URL, Engine: engines[i],
			HeartbeatEvery: 50 * time.Millisecond, PollEvery: 10 * time.Millisecond,
			Metrics: peerRegs[i], Log: testLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	close(joined)

	// The armed fault crashes the coordinator at the first completion.
	crashed := func() bool {
		co1.mu.Lock()
		defer co1.mu.Unlock()
		return co1.closed
	}
	deadline := time.Now().Add(30 * time.Second)
	for !crashed() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator was never killed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Leave the fabric headless long enough for every worker to cross the
	// heartbeat-failure threshold and enter its reconnect machine — the
	// realistic restart, not an instant flicker.
	deadline = time.Now().Add(10 * time.Second)
	for peers[0].Connected() || peers[1].Connected() {
		if time.Now().After(deadline) {
			t.Fatal("peers never noticed the coordinator outage")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart: a fresh coordinator on the same journal and store.
	j2, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	reg2 := obs.NewRegistry()
	co2 := NewCoordinator(CoordinatorOptions{
		QueuePerWorker:   16,
		HeartbeatTimeout: 300 * time.Millisecond,
		Journal:          j2,
		Store:            st,
		Metrics:          reg2,
		Log:              testLogger(),
	})
	defer co2.Close()
	h2 := NewServer(co2, reg2, testLogger()).Routes()
	handler.Store(&h2)

	// Both workers find the replacement and list their leases to it.
	deadline = time.Now().Add(10 * time.Second)
	for !peers[0].Connected() || !peers[1].Connected() {
		if time.Now().After(deadline) {
			t.Fatal("peers never reconnected to the restarted coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}

	remote := make([]string, len(jobs))
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %s across coordinator restart: %v", jobs[i].Label(), err)
		}
		remote[i] = canon(t, res)
	}

	// Exactly one execution per job across the whole fabric: the completion
	// that was in flight at the crash was retried and accepted, not redone,
	// and journaled leases kept running instead of being requeued.
	var executed int64
	for _, e := range engines {
		executed += e.Stats().Done
	}
	if executed != int64(len(jobs)) {
		t.Errorf("fabric executed %d jobs, want exactly %d (a re-run slipped through)",
			executed, len(jobs))
	}

	// The replacement really was rebuilt from the journal, and the workers
	// really did reconnect rather than rejoin fresh.
	if got := metricValue(reg2, "rsr_cluster_replay_items_total"); got < 1 {
		t.Errorf("replayed items = %v, want >= 1", got)
	}
	for i, reg := range peerRegs {
		if got := metricValue(reg, "rsr_peer_reconnects_total"); got < 1 {
			t.Errorf("peer %d reconnects = %v, want >= 1", i, got)
		}
	}

	// The restart must not change a single byte of the results.
	assertSingleNode(t, ctx, jobs, remote)
}

// TestFaultNodeLossRequeuesToSurvivor exercises the reaper directly, without
// HTTP: a node that stops heartbeating loses its lease; the leased item
// requeues behind the one still waiting, and the next worker pulls and
// completes both. The reaper runs at an explicit instant past the timeout,
// so nothing waits on the clock.
func TestFaultNodeLossRequeuesToSurvivor(t *testing.T) {
	reg := obs.NewRegistry()
	co := NewCoordinator(CoordinatorOptions{
		QueuePerWorker:   8,
		HeartbeatTimeout: time.Hour,
		Metrics:          reg,
		Log:              testLogger(),
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
	if it := co.Pull("a"); it == nil || it.ID != id1 {
		t.Fatalf("lease = %+v, want %.12s", it, id1)
	}
	// Node a goes silent: one item leased, one still queued.
	co.reap(time.Now().Add(2 * time.Hour))

	beat(t, co, "b")
	for i, want := range []string{id2, id1} {
		it := co.Pull("b")
		if it == nil || it.ID != want {
			t.Fatalf("survivor pull %d = %+v, want %.12s", i, it, want)
		}
		fakeComplete(t, co, "b", it.ID)
	}
	for _, id := range []string{id1, id2} {
		if st, ok := co.Status(id); !ok || st.Status != "done" {
			t.Fatalf("status[%.12s] = %+v", id, st)
		}
	}
	if got := metricValue(reg, "rsr_cluster_nodes_lost_total"); got != 1 {
		t.Errorf("nodes lost = %v, want 1", got)
	}
	// Only the leased item is requeued; the never-started one never left
	// the queue.
	if got := metricValue(reg, "rsr_cluster_requeues_total"); got != 1 {
		t.Errorf("requeues = %v, want 1", got)
	}
}

// TestChaosStragglerRunsEachJobOnce is the straggler arm: one of two workers
// stalls every job it runs (fault latency at the engine's job-run point)
// under the shipped CoordinatorOptions. The stalled worker keeps
// heartbeating, so its leases stay its own — nothing is requeued or run a
// second time — and the sweep is byte-identical to a single-node run.
func TestChaosStragglerRunsEachJobOnce(t *testing.T) {
	f := newFabric(t, CoordinatorOptions{}, 1)
	f.addPeer(t, PeerOptions{Node: "peer-slow"}, fault.New(3, fault.Rule{
		Point: fault.JobRun, Kind: fault.KindLatency, Prob: 1, Latency: 300 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	jobs := sweepJobs(t)
	start := time.Now()
	remote := sweepThrough(t, ctx, f.ts.URL, jobs)
	t.Logf("sweep of %d jobs took %v", len(jobs), time.Since(start).Round(time.Millisecond))

	var executed int64
	for _, e := range f.engines {
		executed += e.Stats().Done
	}
	if executed != int64(len(jobs)) {
		t.Errorf("fabric executed %d jobs, want exactly %d", executed, len(jobs))
	}
	if f.engines[1].Stats().Done == 0 {
		t.Error("the stalled worker ran no job: the arm exercised no straggler")
	}
	assertSingleNode(t, ctx, jobs, remote)
}
