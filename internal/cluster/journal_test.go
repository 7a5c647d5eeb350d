package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/obs"
)

// journaledCoordinator builds a coordinator whose scheduling survives Crash:
// a journal in dir, and a caller-shared store so replayed result blobs
// resolve — a disk store, as rsrc pairs -journal with -casdir, since the
// coordinator keeps no result blob in memory.
func journaledCoordinator(t *testing.T, dir string, st *cas.Store, reg *obs.Registry) *Coordinator {
	t.Helper()
	j, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return NewCoordinator(CoordinatorOptions{
		QueuePerWorker:   8,
		HeartbeatTimeout: time.Hour,
		Journal:          j,
		Store:            st,
		Metrics:          reg,
		Log:              testLogger(),
	})
}

// liveSnapshot reads the coordinator's full scheduler state, the comparand
// for replay equivalence.
func liveSnapshot(co *Coordinator) snapshot {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.snapshotLocked()
}

// TestJournalPropertyRandomOpsReplayMatchesLiveState is the journal's
// property test: drive a journaled coordinator through seeded random
// interleavings of every journaled verb — submit, sweep, lease (pull),
// complete (success, transient failure, permanent failure), requeue, and
// reap — then crash it and assert the coordinator rebuilt from the journal
// renders exactly the same scheduler snapshot (states, holders, requeue
// counts, error messages, sweeps) as the live one did at the moment of the
// crash. Along the way the queue is checked against a reference model, a
// slice of queued IDs: after every op the coordinator's queue holds exactly
// the model's IDs in the model's order (nothing lost, nothing queued twice),
// and every pull returns the model's front — FIFO, and work-conserving: a
// pull comes back empty only when the model is.
func TestJournalPropertyRandomOpsReplayMatchesLiveState(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st := cas.NewStore(t.TempDir())
		co := journaledCoordinator(t, dir, st, nil)

		type lease struct{ node, id string }
		var leases []lease
		var model []string // the reference queue, oldest first
		known := map[string]bool{}
		requeues := map[string]int{}
		accepted := func(ids ...string) {
			for _, id := range ids {
				if !known[id] {
					known[id] = true
					model = append(model, id)
				}
			}
		}
		requeued := func(id string) { // within the default budget of 3, else failed
			if requeues[id]++; requeues[id] <= 3 {
				model = append(model, id)
			}
		}
		nextJob := int64(0)
		for op := 0; op < 200; op++ {
			switch rng.Intn(10) {
			case 0, 1: // submit one job
				nextJob++
				if id, err := co.Submit(unitJob(nextJob), ""); err == nil {
					accepted(id)
				}
			case 2: // submit a two-job sweep: per job, under one tag
				tag := fmt.Sprintf("tag-%d", nextJob)
				for i := 0; i < 2; i++ {
					nextJob++
					if id, err := co.Submit(unitJob(nextJob), tag); err == nil {
						accepted(id)
					}
				}
			case 3, 4: // heartbeat a node (registers it)
				beat(t, co, nodes[rng.Intn(len(nodes))])
			case 5, 6: // pull a lease
				n := nodes[rng.Intn(len(nodes))]
				beat(t, co, n)
				it := co.Pull(n)
				if len(model) == 0 {
					if it != nil {
						t.Fatalf("seed %d op %d: pull from an empty queue = %+v", seed, op, it)
					}
					continue
				}
				if it == nil || it.ID != model[0] {
					t.Fatalf("seed %d op %d: pull = %+v, want the model's front %.12s", seed, op, it, model[0])
				}
				model = model[1:]
				leases = append(leases, lease{n, it.ID})
			case 7: // complete a lease successfully
				if len(leases) == 0 {
					continue
				}
				i := rng.Intn(len(leases))
				l := leases[i]
				leases = append(leases[:i], leases[i+1:]...)
				fakeComplete(t, co, l.node, l.id)
			case 8: // fail a lease (transient half the time: requeue path)
				if len(leases) == 0 {
					continue
				}
				i := rng.Intn(len(leases))
				l := leases[i]
				leases = append(leases[:i], leases[i+1:]...)
				transient := rng.Intn(2) == 0
				if err := co.Complete(CompleteRequest{Node: l.node, ID: l.id,
					Error: "injected", Transient: transient}); err != nil {
					t.Fatalf("seed %d: fail complete: %v", seed, err)
				}
				if transient {
					requeued(l.id)
				}
			case 9: // reap every node: leased work requeues in (node, ID) order
				co.reap(time.Now().Add(2 * time.Hour))
				sort.Slice(leases, func(i, j int) bool {
					if leases[i].node != leases[j].node {
						return leases[i].node < leases[j].node
					}
					return leases[i].id < leases[j].id
				})
				for _, l := range leases {
					requeued(l.id)
				}
				leases = leases[:0]
			}
			co.mu.Lock()
			var queued []string
			for _, it := range co.queue {
				if it.state == itemQueued {
					queued = append(queued, it.id)
				}
			}
			co.mu.Unlock()
			if !slices.Equal(queued, model) {
				t.Fatalf("seed %d op %d: queue = %.12s, model = %.12s", seed, op, queued, model)
			}
		}

		want := liveSnapshot(co)
		co.Crash()

		re := journaledCoordinator(t, dir, st, nil)
		got := liveSnapshot(re)
		re.Crash()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: replayed snapshot differs from live state\nlive:     %+v\nreplayed: %+v",
				seed, want, got)
		}
	}
}

// TestJournalCompactionRoundTrip pins snapshot compaction: folding the log
// into snapshot.json truncates the record file, and a coordinator restarted
// on the compacted directory — plus records appended after the compaction —
// rebuilds the same state as one that replayed the full log.
func TestJournalCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id1, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil || it.ID != id1 {
		t.Fatalf("lease = %+v", it)
	}
	fakeComplete(t, co, "a", id1)

	if err := co.CompactJournal(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	if fi.Size() != 0 {
		t.Fatalf("journal size after compaction = %d, want 0", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot after compaction: %v", err)
	}

	// Post-compaction records layer on top of the snapshot.
	id2, err := co.Submit(unitJob(2), "")
	if err != nil {
		t.Fatal(err)
	}
	want := liveSnapshot(co)
	co.Crash()

	re := journaledCoordinator(t, dir, st, nil)
	defer re.Crash()
	got := liveSnapshot(re)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot+journal replay differs\nlive:     %+v\nreplayed: %+v", want, got)
	}
	if stj, _ := re.Status(id1); stj.Status != "done" || stj.Result == nil {
		t.Errorf("compacted done item = %+v, want done with result", stj)
	}
	if stj, _ := re.Status(id2); stj.Status != "pending" {
		t.Errorf("post-compaction item = %+v, want pending", stj)
	}
}

// TestJournalQuarantinesCorruptTail pins crash-safety of the log itself: a
// torn or scribbled final write must not poison recovery. Replay stops at
// the last valid record, the bad tail is preserved in a quarantine file, and
// the truncated journal reopens cleanly with the pre-corruption state.
func TestJournalQuarantinesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	fakeComplete(t, co, "a", id)
	want := liveSnapshot(co)
	co.Crash()

	// A torn final record: valid JSON prefix cut mid-write, no newline.
	tail := `{"kind":"lease","id":"deadbeef","no`
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	if j.Replay().Quarantined != len(tail) {
		t.Errorf("quarantined = %d bytes, want %d", j.Replay().Quarantined, len(tail))
	}
	q, err := os.ReadFile(filepath.Join(dir, "tail-quarantine-0"))
	if err != nil || string(q) != tail {
		t.Errorf("quarantine file = %q, %v; want the cut tail", q, err)
	}
	re := NewCoordinator(CoordinatorOptions{
		HeartbeatTimeout: time.Hour, Journal: j, Store: st, Log: testLogger(),
	})
	got := liveSnapshot(re)
	re.Crash()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("post-quarantine replay differs\nwant: %+v\ngot:  %+v", want, got)
	}

	// The truncated journal is clean: a third open quarantines nothing new.
	j2, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	defer j2.close()
	if j2.Replay().Quarantined != 0 {
		t.Errorf("second open quarantined %d bytes, want 0", j2.Replay().Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "tail-quarantine-1")); !os.IsNotExist(err) {
		t.Error("second open created another quarantine file")
	}
}

// TestJournalReplayServesDoneFromCAS pins the crash-recovery payoff: a job
// completed before the crash is served straight from its CAS result blob —
// pollable immediately, no worker involved — while the same journal replayed
// with no store downgrades the item to queued (a deterministic re-run), never
// to a wrong answer.
func TestJournalReplayServesDoneFromCAS(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	fakeComplete(t, co, "a", id)
	co.Crash()

	reg := obs.NewRegistry()
	re := journaledCoordinator(t, dir, st, reg)
	served, ok := re.Status(id)
	if !ok || served.Status != "done" || served.Result == nil {
		t.Fatalf("replayed done item = %+v, %v; want done with result", served, ok)
	}
	if got := metricValue(reg, "rsr_cluster_replay_items_total"); got != 1 {
		t.Errorf("replay metric = %v, want 1", got)
	}
	re.Crash()

	// Same journal, no store: the promised blob is gone, so the item must
	// re-run rather than report a result the store cannot back.
	reg2 := obs.NewRegistry()
	re2 := journaledCoordinator(t, dir, nil, reg2)
	defer re2.Close()
	if stj, ok := re2.Status(id); !ok || stj.Status != "pending" {
		t.Fatalf("blob-missing item = %+v, %v; want pending (requeued)", stj, ok)
	}
	beat(t, re2, "b")
	if it := re2.Pull("b"); it == nil || it.ID != id {
		t.Fatalf("blob-missing pull = %+v, want requeued %.12s", it, id)
	}
	fakeComplete(t, re2, "b", id)
	if stj, _ := re2.Status(id); stj.Status != "done" || !reflect.DeepEqual(stj.Result, served.Result) {
		t.Fatalf("recomputed item = %+v, want done with the result served before", stj)
	}
}

// TestJournalReplayRequeuesUnverifiableBlob: a journal may name a blob that
// is intact in the store but not a servable result — here one with no
// payload, which a coordinator that checked only the job hash accepted. The
// replay verifies it like a fresh report, so the item is requeued and
// recomputed instead of served as done with nothing in it.
func TestJournalReplayRequeuesUnverifiableBlob(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	bare := engine.Result{JobHash: id, Kind: engine.JobSampled}
	b, _ := json.Marshal(bare)
	sum, err := st.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	co.mu.Lock()
	co.items[id].blobSum = sum
	co.finalize(co.items[id], &bare, "")
	co.mu.Unlock()
	co.Crash()

	re := journaledCoordinator(t, dir, st, nil)
	defer re.Close()
	if stj, ok := re.Status(id); !ok || stj.Status != "pending" {
		t.Fatalf("replayed item = %+v, %v; want pending (requeued)", stj, ok)
	}
	beat(t, re, "b")
	if it := re.Pull("b"); it == nil || it.ID != id {
		t.Fatalf("pull = %+v, want requeued %.12s", it, id)
	}
	good := resultReport(t, "b", id)
	if err := re.Complete(good); err != nil {
		t.Fatal(err)
	}
	if stj, _ := re.Status(id); stj.Status != "done" || stj.Result.Verify(id) != nil {
		t.Fatalf("recomputed item = %+v, want done with a verified result", stj)
	}
}

// TestLeaseReadoptionAcrossRestart pins the replayed half of the lease
// rule: a lease running through a coordinator crash stays with its journaled
// holder, which is given no new work until its first heartbeat; that
// heartbeat lists the lease, so it stays, and the holder's completion is
// accepted exactly as if the restart never happened. A heartbeat from a node
// the journal never named leaves the lease table alone, whatever it lists.
func TestLeaseReadoptionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil || it.ID != id {
		t.Fatalf("lease = %+v", it)
	}
	queued, err := co.Submit(unitJob(2), "")
	if err != nil {
		t.Fatal(err)
	}
	co.Crash()

	re := journaledCoordinator(t, dir, st, nil)
	defer re.Close()
	if stj, _ := re.Status(id); stj.Status != "pending" {
		t.Fatalf("journaled lease status = %s, want pending", stj.Status)
	}
	if it := re.Pull("a"); it != nil {
		t.Fatalf("replayed holder leased %+v before its first heartbeat", it)
	}
	if err := re.Heartbeat(Heartbeat{Node: "b", Protocol: ProtocolVersion,
		Leases: []string{"feedface", id}}); err != nil {
		t.Fatal(err)
	}
	if err := re.Heartbeat(Heartbeat{Node: "a", Protocol: ProtocolVersion,
		Leases: []string{id}}); err != nil {
		t.Fatal(err)
	}
	// The lease stayed with a: b finds only the item that was queued.
	if it := re.Pull("b"); it == nil || it.ID != queued {
		t.Fatalf("pull = %+v, want the queued %.12s", it, queued)
	}
	if it := re.Pull("b"); it != nil {
		t.Fatalf("pull = %+v, want nothing: the journaled lease was kept", it)
	}
	// The holder completes the item; no re-run, no stale drop.
	fakeComplete(t, re, "a", id)
	if stj, _ := re.Status(id); stj.Status != "done" {
		t.Fatalf("status after the holder's completion = %s, want done", stj.Status)
	}
}

// TestReplayedHolderRequeuesOmittedLease pins the requeue the replayed
// holder's first heartbeat makes: a journaled lease it does not list — it
// finished or lost the job while the coordinator was down — is requeued at
// once, and a later heartbeat that omits a lease changes nothing.
func TestReplayedHolderRequeuesOmittedLease(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		id, err := co.Submit(unitJob(seed), "")
		if err != nil {
			t.Fatal(err)
		}
		if it := co.Pull("a"); it == nil || it.ID != id {
			t.Fatalf("lease = %+v, want %.12s", it, id)
		}
		ids = append(ids, id)
	}
	co.Crash()

	re := journaledCoordinator(t, dir, st, nil)
	defer re.Close()
	if err := re.Heartbeat(Heartbeat{Node: "a", Protocol: ProtocolVersion,
		Leases: ids[1:]}); err != nil {
		t.Fatal(err)
	}
	if it := re.Pull("b"); it == nil || it.ID != ids[0] {
		t.Fatalf("pull = %+v, want the omitted lease %.12s requeued", it, ids[0])
	}
	beat(t, re, "a") // lists nothing, and is not authoritative
	if it := re.Pull("b"); it != nil {
		t.Fatalf("pull = %+v, want nothing: only the first heartbeat settles leases", it)
	}
}

// TestReplayedHolderReapedAfterReconnectCap pins the other way a journaled
// lease leaves its holder: a holder that never heartbeats the restarted
// coordinator is reaped once it has been silent for the heartbeat timeout
// plus reconnectCap, the longest a live worker waits between reconnect
// probes — and not before — and its lease requeues to a survivor.
func TestReplayedHolderReapedAfterReconnectCap(t *testing.T) {
	dir := t.TempDir()
	st := cas.NewStore(t.TempDir())
	co := journaledCoordinator(t, dir, st, nil)
	beat(t, co, "a")
	id, err := co.Submit(unitJob(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if it := co.Pull("a"); it == nil {
		t.Fatal("no lease")
	}
	co.Crash()

	before := time.Now()
	re := journaledCoordinator(t, dir, st, nil)
	defer re.Close()
	restart := time.Now()
	silence := time.Hour + reconnectCap // journaledCoordinator's timeout

	re.reap(before.Add(silence))
	if snap := liveSnapshot(re); snap.Items[0].State != "running" {
		t.Fatalf("item %+v, want still running with a inside its grace", snap.Items[0])
	}
	re.reap(restart.Add(silence + time.Millisecond))
	beat(t, re, "b")
	if it := re.Pull("b"); it == nil || it.ID != id {
		t.Fatalf("pull = %+v, want the silent holder's lease %.12s requeued", it, id)
	}
	fakeComplete(t, re, "b", id)
	if stj, _ := re.Status(id); stj.Status != "done" {
		t.Fatalf("status = %s, want done", stj.Status)
	}
}

// TestJournalReplaysParentFormat pins that dropping the request ID left the
// journal format compatible: a directory whose snapshot item and submit
// record still carry the parent format's req_id replays to the same items,
// holders and sweep membership, the unknown key ignored.
func TestJournalReplaysParentFormat(t *testing.T) {
	snapJob, subJob := unitJob(1), unitJob(2)
	sb, err := json.Marshal(snapJob)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(subJob)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := `{"sweeps":{"rsr-a":["` + snapJob.Hash() + `"]},"items":[{"id":"` + snapJob.Hash() +
		`","job":` + string(sb) + `,"req_id":"r1","sweep":"rsr-a","state":"running","holder":"w1"}]}`
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join([]string{
		`{"kind":"submit","id":"` + subJob.Hash() + `","job":` + string(jb) + `,"req_id":"r2","sweep":"rsr-a"}`,
		`{"kind":"lease","id":"` + subJob.Hash() + `","node":"w2"}`,
	}, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	rp := j.Replay()
	want := []ReplayItem{
		{ID: snapJob.Hash(), Job: snapJob, Sweep: "rsr-a", State: "running", Holder: "w1"},
		{ID: subJob.Hash(), Job: subJob, Sweep: "rsr-a", State: "running", Holder: "w2"},
	}
	sort.Slice(want, func(a, b int) bool { return want[a].ID < want[b].ID })
	if !reflect.DeepEqual(rp.Items, want) {
		t.Errorf("replayed items = %+v, want %+v", rp.Items, want)
	}
	if rp.Quarantined != 0 || rp.Records != 2 {
		t.Errorf("replay quarantined %d bytes and read %d records, want 0 and 2", rp.Quarantined, rp.Records)
	}

	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Journal: j, Log: testLogger()})
	defer co.Crash()
	if ids, ok := sweepMembers(co, "rsr-a"); !ok || !slices.Equal(ids, []string{snapJob.Hash(), subJob.Hash()}) {
		t.Errorf("sweep rsr-a = %v, %v; want the snapshot item then the submitted one", ids, ok)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for id, holder := range map[string]string{snapJob.Hash(): "w1", subJob.Hash(): "w2"} {
		if it := co.items[id]; it.state != itemRunning || it.holder != holder || !co.nodes[holder].leases[id] {
			t.Errorf("item %.12s: state %v holder %q, want running under %s", id, it.state, it.holder, holder)
		}
	}
}

// TestReplayedTagWithoutSubmitJoinsNothing pins that a journal record cannot
// conjure a sweep member: a tag record for an ID no submit record or snapshot
// item names joins no sweep, so it neither forms a sweep nor counts in one,
// while a tag record for a known item still joins.
func TestReplayedTagWithoutSubmitJoinsNothing(t *testing.T) {
	known, phantom := unitJob(1), unitJob(2).Hash()
	body, err := json.Marshal(known)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(strings.Join([]string{
		`{"kind":"submit","id":"` + known.Hash() + `","job":` + string(body) + `,"sweep":"first"}`,
		`{"kind":"tag","id":"` + known.Hash() + `","sweep":"second"}`,
		`{"kind":"tag","id":"` + phantom + `","sweep":"second"}`,
		`{"kind":"tag","id":"` + phantom + `","sweep":"ghost"}`,
	}, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"first": {known.Hash()}, "second": {known.Hash()}}
	if got := j.Replay().Sweeps; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed sweeps = %v, want %v", got, want)
	}
	co := NewCoordinator(CoordinatorOptions{HeartbeatTimeout: time.Hour, Journal: j, Log: testLogger()})
	defer co.Crash()
	if _, ok := co.SweepTraceInfo("ghost"); ok {
		t.Error("a sweep formed from a tag record alone")
	}
	if ids, ok := sweepMembers(co, "second"); !ok || !slices.Equal(ids, []string{known.Hash()}) {
		t.Errorf("sweep second = %v, %v; want its one known member", ids, ok)
	}
	if st, _ := co.Status(known.Hash()); st.Status != "pending" {
		t.Errorf("known member is %s, want pending", st.Status)
	}
}

// TestSweepJournalLinear pins what a tagged submission costs the journal: one
// record, its submit record, whose size does not depend on how many jobs the
// sweep already holds. (Re-journaling the sweep's cumulative membership on
// every submission, as the parent format did, wrote 5.3 KB per job at 126
// submissions and 66.6 KB at 2,000.) A coalesced resubmission writes nothing
// under the tag the item already has and one tag record under a new one, and
// the sweeps replay as they stood.
func TestSweepJournalLinear(t *testing.T) {
	type written struct {
		bytes   int64
		records int
	}
	dir := t.TempDir()
	var co *Coordinator
	open := func(dir string) {
		j, err := OpenJournal(dir, testLogger())
		if err != nil {
			t.Fatal(err)
		}
		co = NewCoordinator(CoordinatorOptions{QueuePerWorker: 4096, HeartbeatTimeout: time.Hour,
			Journal: j, Log: testLogger()})
	}
	journal := func(dir string) written {
		b, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return written{int64(len(b)), strings.Count(string(b), "\n")}
	}
	sweepOf := func(dir string, n int) written {
		open(dir)
		for seed := int64(1); seed <= int64(n); seed++ {
			if _, err := co.Submit(unitJob(seed), "sweep-tag"); err != nil {
				t.Fatalf("submit %d of %d: %v", seed, n, err)
			}
		}
		return journal(dir)
	}

	small := sweepOf(t.TempDir(), 126)
	co.Crash()
	large := sweepOf(dir, 2000)
	if small.records != 126 || large.records != 2000 {
		t.Errorf("journal holds %d and %d records for 126 and 2,000 fresh tagged submissions; want one each",
			small.records, large.records)
	}
	perSmall, perLarge := float64(small.bytes)/126, float64(large.bytes)/2000
	t.Logf("journal bytes per tagged job: %.0f at 126 submissions, %.0f at 2,000", perSmall, perLarge)
	if perLarge > 1.2*perSmall {
		t.Errorf("%.0f journal bytes per job at 2,000 submissions against %.0f at 126: a submission's cost grows with its sweep", perLarge, perSmall)
	}

	// Resubmissions coalesce: silent under the item's own tag, one tag record
	// under another.
	for _, tag := range []string{"sweep-tag", "second-tag", "second-tag"} {
		if _, err := co.Submit(unitJob(7), tag); err != nil {
			t.Fatal(err)
		}
	}
	if got := journal(dir).records; got != 2001 {
		t.Errorf("three coalesced resubmissions, one under a new tag, left %d records; want 2001", got)
	}
	want := liveSnapshot(co)
	co.Crash()
	open(dir)
	defer co.Crash()
	if got := liveSnapshot(co); !reflect.DeepEqual(got.Sweeps, want.Sweeps) {
		t.Errorf("replayed sweeps differ from the live ones: %d and %d members, want %d and %d",
			len(got.Sweeps["sweep-tag"]), len(got.Sweeps["second-tag"]), len(want.Sweeps["sweep-tag"]), len(want.Sweeps["second-tag"]))
	}
	if ids, ok := sweepMembers(co, "second-tag"); !ok || !slices.Equal(ids, []string{unitJob(7).Hash()}) {
		t.Errorf("sweep formed by a coalesced resubmission after replay = %v, %v", ids, ok)
	}
}
