package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
	"rsr/internal/obs"
)

// doctorChecks are `rsr doctor`'s end-to-end self-checks. Each execs real
// processes, this rsr and the rsrc and rsrd beside it, and returns a summary
// of what held.
var doctorChecks = []struct {
	name string
	run  func(*doctor) string
}{
	{"results", (*doctor).results},
	{"obs", (*doctor).obs},
	{"fabric", (*doctor).fabric},
	{"recovery", (*doctor).recovery},
	{"regimen", (*doctor).regimen},
}

// runDoctor runs the named check and returns the process's exit status: 0
// when it held, 1 when it failed, 2 for a name that is no check.
func runDoctor(name string) (status int) {
	var names []string
	for _, c := range doctorChecks {
		names = append(names, c.name)
	}
	i := slices.Index(names, name)
	if i < 0 {
		fmt.Fprintf(os.Stderr, "rsr: doctor runs one check: %s\n", strings.Join(names, ", "))
		return 2
	}
	// Ending the context, on a signal or at close, kills every started process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	d := &doctor{ctx: ctx, stop: stop, hc: http.Client{Timeout: 10 * time.Second}}
	defer func() {
		r := recover()
		f, failed := r.(failure)
		if r != nil && !failed {
			panic(r)
		}
		d.close(failed)
		if failed {
			fmt.Fprintf(os.Stderr, "doctor %s: %v\n", name, f.error)
			status = 1
		}
	}()
	var err error
	d.exe, err = os.Executable()
	d.must(err)
	d.dir, err = os.MkdirTemp("", "rsr-doctor-")
	d.must(err)
	fmt.Printf("doctor %s: ok (%s)\n", name, doctorChecks[i].run(d))
	return 0
}

// doctor is one check's run: its scratch directory and started processes.
type doctor struct {
	ctx   context.Context
	stop  context.CancelFunc
	exe   string // this rsr binary
	dir   string
	procs []*exec.Cmd
	hc    http.Client
}

// failure is a check's failure, raised by check or must and recovered by
// runDoctor, as testing.T's Fatal ends a test.
type failure struct{ error }

// check fails the check unless ok holds.
func (d *doctor) check(ok bool, format string, args ...any) {
	if !ok {
		panic(failure{fmt.Errorf(format, args...)})
	}
}

func (d *doctor) must(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// close kills every started process, prints their logs if the check failed,
// and removes the scratch directory.
func (d *doctor) close(failed bool) {
	d.stop()
	for _, p := range d.procs {
		p.Wait() // killed, or waited for already: its status says nothing new
	}
	if d.dir == "" {
		return
	}
	logs, _ := filepath.Glob(d.path("*.log")) // the pattern is well-formed
	for _, log := range logs {
		if b, err := os.ReadFile(log); failed && err == nil {
			fmt.Fprintf(os.Stderr, "--- %s\n%s", filepath.Base(log), b)
		}
	}
	os.RemoveAll(d.dir)
}

func (d *doctor) path(name string) string { return filepath.Join(d.dir, name) }

// sibling is the path of the rsrc or rsrd built beside this rsr.
func (d *doctor) sibling(name string) string {
	path := filepath.Join(filepath.Dir(d.exe), name)
	_, err := os.Stat(path)
	d.check(err == nil, "no %s beside %s: build all three with `go build -o DIR/ ./cmd/rsr ./cmd/rsrc ./cmd/rsrd`", name, d.exe)
	return path
}

// start runs bin in the background, its output appended to the log name.log.
func (d *doctor) start(name, bin string, args ...string) *exec.Cmd {
	f, err := os.OpenFile(d.path(name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	d.must(err)
	defer f.Close()
	cmd := exec.CommandContext(d.ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	d.must(cmd.Start())
	d.procs = append(d.procs, cmd)
	return cmd
}

// rsr runs this binary to completion and returns its stdout and stderr.
func (d *doctor) rsr(args ...string) (string, string) {
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(d.ctx, d.exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	d.check(err == nil, "rsr %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	return out.String(), errOut.String()
}

// poll calls ok every step until it reports true, at most n times, and
// fails the check with what if it never does.
func (d *doctor) poll(n int, step time.Duration, what string, ok func() bool) {
	for range n {
		if ok() {
			return
		}
		select {
		case <-d.ctx.Done():
			d.must(d.ctx.Err())
		case <-time.After(step):
		}
	}
	d.check(false, "%s", what)
}

// call sends one request to addr and returns a 2xx answer's header and body.
func (d *doctor) call(method, addr, path, body string) (http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(d.ctx, method, "http://"+addr+path, strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, b)
	}
	return resp.Header, b, err
}

// getJSON decodes GET addr+path into v.
func (d *doctor) getJSON(addr, path string, v any) {
	_, b, err := d.call(http.MethodGet, addr, path, "")
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	d.check(err == nil, "GET %s%s: %v", addr, path, err)
}

func (d *doctor) scrape(addr string) metrics {
	_, b, err := d.call(http.MethodGet, addr, "/metrics", "")
	d.must(err)
	m, err := parseMetrics(string(b))
	d.must(err)
	return m
}

// waitReady polls addr's /readyz for up to 10 s.
func (d *doctor) waitReady(addr, name string) {
	d.poll(50, 200*time.Millisecond, name+" did not become ready at "+addr, func() bool {
		_, _, err := d.call(http.MethodGet, addr, "/readyz", "")
		return err == nil
	})
}

// readJSON decodes the file at path into v.
func (d *doctor) readJSON(path string, v any) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	d.check(err == nil, "%s: %v", filepath.Base(path), err)
}

// metrics is one Prometheus scrape: each value under its series as exposed
// (`name{k="v"}`).
type metrics map[string]float64

func parseMetrics(text string) (metrics, error) {
	m := metrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("/metrics: malformed sample %q", line)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// has fails unless the scrape holds series, or a labeled series of it.
func (m metrics) has(series string) error {
	for k := range m {
		if k == series || strings.HasPrefix(k, series+"{") {
			return nil
		}
	}
	return fmt.Errorf("/metrics lacks %s", series)
}

// want fails unless series is exposed with exactly the value v.
func (m metrics) want(series string, v float64) error {
	if got, ok := m[series]; !ok || got != v {
		return fmt.Errorf("/metrics has %s %v (exposed: %v), want %v", series, got, ok, v)
	}
	return nil
}

// durationRE is a Go duration token (812µs, 224.5ms, 1.23s, 1m2.5s) with the
// padding in front of it: a right-aligned column pads a shorter one with
// more spaces.
var durationRE = func() *regexp.Regexp {
	re := regexp.MustCompile(` *([0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m|h))+\b`)
	re.Longest() // as sed -E matches
	return re
}()

// maskDurations replaces each duration token of s, padding included, by " <dur>".
func maskDurations(s string) string { return durationRE.ReplaceAllString(s, " <dur>") }

// lineDiff is empty when want and got are equal, and otherwise names their
// first line that differs (an end of output reads as a NUL).
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.SplitAfter(want+"\x00", "\n"), strings.SplitAfter(got+"\x00", "\n")
	i := 0
	for i < len(w)-1 && i < len(g)-1 && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
}

// tableDiff is lineDiff with durations masked: the wall-clock columns differ
// between any two runs, every other byte is deterministic.
func tableDiff(want, got string) string { return lineDiff(maskDurations(want), maskDurations(got)) }

// statField is the value of `key=N` on rsr -stats's stderr.
func statField(stats, key string) (int64, error) {
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("-stats has no %s= field:\n%s", key, stats)
}

// chromeTrace is the part of a Chrome trace-event file the checks read.
type chromeTrace struct{ TraceEvents []traceEvent }

type traceEvent struct {
	Name, Ph string
	Pid      int
	Ts, Dur  float64 // µs
	Args     map[string]any
}

// fabricLanes are the fabric's nodes: lanes of its trace, workers' -node names.
var fabricLanes = []string{"coordinator", "worker-a", "worker-b"}

// checkFabricTrace holds a merged fabric trace to its contract and returns
// its sweep tag: a lane with spans for each of fabricLanes, one tag on every
// span, and one clock: each worker span inside the coordinator's one `sweep`
// span, as causality orders them on one host.
func checkFabricTrace(t chromeTrace) (string, error) {
	pids := map[string]int{}         // lane name → pid
	spans := map[int]int{}           // pid → spans
	sweeps := map[int][]traceEvent{} // pid → its spans named sweep
	tags := map[string]bool{}
	var tag string
	for _, ev := range t.TraceEvents {
		switch ev.Ph {
		case "M":
			if name, _ := ev.Args["name"].(string); ev.Name == "process_name" {
				pids[name] = ev.Pid
			}
		case "X":
			spans[ev.Pid]++
			if ev.Name == "sweep" {
				sweeps[ev.Pid] = append(sweeps[ev.Pid], ev)
			}
			if tag, _ = ev.Args["sweep"].(string); tag == "" {
				return "", fmt.Errorf("span %q lacks a sweep tag", ev.Name)
			}
			tags[tag] = true
		}
	}
	for _, lane := range fabricLanes {
		if pid, ok := pids[lane]; !ok || spans[pid] == 0 {
			return "", fmt.Errorf("no process lane with spans for %q (lanes: %v)", lane, pids)
		}
	}
	if len(tags) != 1 {
		return "", fmt.Errorf("want one sweep tag across all spans, got %v", tags)
	}
	coord := pids["coordinator"]
	if len(sweeps[coord]) != 1 {
		return "", fmt.Errorf("coordinator lane has %d sweep spans, want 1", len(sweeps[coord]))
	}
	// Timestamps are printed to the nanosecond: the bound allows only float
	// rounding.
	const slack = 0.0005 // µs
	from, to := sweeps[coord][0].Ts, sweeps[coord][0].Ts+sweeps[coord][0].Dur
	for _, ev := range t.TraceEvents {
		if ev.Ph == "X" && ev.Pid != coord && (ev.Ts < from-slack || ev.Ts+ev.Dur > to+slack) {
			return "", fmt.Errorf("worker span %q (pid %d) [%.3f, %.3f] µs lies outside the coordinator's sweep span [%.3f, %.3f]",
				ev.Name, ev.Pid, ev.Ts, ev.Ts+ev.Dur, from, to)
		}
	}
	return tag, nil
}

// results regenerates the committed results_*.txt as `make results` does and
// compares each with the file in the working directory, durations masked.
func (d *doctor) results() string {
	var differ []string
	for _, run := range [][]string{
		{"results_reference.txt", "all"},
		{"results_fig7_sequential.txt", "-parallel", "1", "fig7"},
		{"results_strategies.txt", "strategies"},
		{"results_frontier.txt", "frontier"},
	} {
		want, err := os.ReadFile(run[0])
		d.must(err)
		got, _ := d.rsr(run[1:]...)
		if diff := tableDiff(string(want), got); diff != "" {
			fmt.Fprintf(os.Stderr, "doctor results: %s differs beyond duration tokens: %s\n", run[0], diff)
			differ = append(differ, run[0])
		}
	}
	d.check(differ == nil, "differing beyond duration tokens: %s", strings.Join(differ, ", "))
	return "4 files identical but for durations"
}

// obs checks that a real rsrd serves /metrics after a real job, and that the
// CLI writes a metrics snapshot and a trace of every cluster's phases.
func (d *doctor) obs() string {
	const addr = "127.0.0.1:18745"
	d.start("rsrd", d.sibling("rsrd"), "-addr", addr, "-parallel", "2")
	d.waitReady(addr, "rsrd")
	// A small reverse-warm-up job, polled until it finishes.
	_, b, err := d.call(http.MethodPost, addr, "/v1/jobs", `{"workload": "twolf", "method": "R$BP (20%)",
		"total": 400000, "seed": 1, "regimen": {"ClusterSize": 2000, "NumClusters": 10}}`)
	d.must(err)
	var sub struct{ ID string }
	d.check(json.Unmarshal(b, &sub) == nil && sub.ID != "", "job submission returned no id: %s", b)
	d.poll(150, 200*time.Millisecond, "job not done after 150 polls", func() bool {
		var st cluster.JobStatus
		d.getJSON(addr, "/v1/jobs/"+sub.ID, &st)
		d.check(st.Status != "failed", "job %s failed: %s", sub.ID, st.Error)
		return st.Status == "done"
	})
	m := d.scrape(addr)
	d.must(errors.Join(
		m.want(`rsr_engine_jobs_total{state="done"}`, 1),
		m.want(`rsr_engine_cache_total{result="miss"}`, 1),
		m.want(`rsr_engine_job_seconds_count{state="done"}`, 1),
		m.has("rsr_sampling_phase_seconds_bucket"),
		m.want(`rsr_sampling_phase_instructions_total{phase="hot"}`, 20000),
		m.want("rsr_sampling_clusters_total", 10),
		m.has("rsr_warmup_recon_applied_total"),
		m.has("rsr_cache_events_total"),
		m.has("rsr_bpred_updates_total"),
	))
	// A request-scoped ID comes back on every response.
	h, _, err := d.call(http.MethodGet, addr, "/healthz", "")
	d.must(err)
	d.check(h.Get("X-Request-ID") != "", "/healthz response lacks X-Request-ID")

	// CLI artifacts: a metrics snapshot and a Chrome trace from one run.
	metricsOut, traceOut := d.path("metrics.json"), d.path("trace.json")
	d.rsr("-scale", "0.02", "-workload", "twolf", "-method", "R$BP (20%)",
		"-metrics-out", metricsOut, "-trace-out", traceOut, "run")
	var snap []obs.MetricSnapshot
	d.readJSON(metricsOut, &snap)
	d.check(slices.ContainsFunc(snap, func(m obs.MetricSnapshot) bool { return m.Name == "rsr_sampling_phase_seconds" }),
		"-metrics-out snapshot lacks the phase histogram rsr_sampling_phase_seconds")
	var tr chromeTrace
	d.readJSON(traceOut, &tr)
	spans := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	// -scale 0.02 of the 50x2000 twolf regimen keeps 50 clusters: each
	// contributes a hot-sim span.
	d.check(spans["cold-skip"] > 0 && spans["reverse-scan"] > 0 && spans["job-run"] > 0 && spans["hot-sim"] == 50,
		"-trace-out spans by name: %v; want cold-skip, reverse-scan, job-run and 50 hot-sim", spans)
	return "metrics families present, trace covers all 50 clusters"
}

// frontierArgs is the small frontier the fabric and recovery checks sweep.
var frontierArgs = []string{"-scale", "0.02", "-workloads", "twolf", "frontier"}

// coordinator starts rsrc on addr over the check's -casdir and waits for it.
func (d *doctor) coordinator(addr string, extra ...string) *exec.Cmd {
	cmd := d.start("rsrc", d.sibling("rsrc"), append([]string{"-addr", addr, "-casdir", d.path("cas")}, extra...)...)
	d.waitReady(addr, "rsrc")
	return cmd
}

// fabricUp starts a coordinator and two peer-mode rsrd workers, all ready.
func (d *doctor) fabricUp(coord string, workers [2]string, extra ...string) *exec.Cmd {
	rsrd := d.sibling("rsrd")
	cmd := d.coordinator(coord, extra...)
	for i, addr := range workers {
		d.start(fabricLanes[i+1], rsrd, "-addr", addr, "-parallel", "2", "-peer",
			"-coordinator", "http://"+coord, "-node", fabricLanes[i+1])
		d.waitReady(addr, fabricLanes[i+1])
	}
	return cmd
}

// sameAsLocal fails unless the fabric's frontier matches a local one but for
// durations, and returns the local engine's executed (distinct) jobs.
func (d *doctor) sameAsLocal(fabricOut string) int64 {
	local, stats := d.rsr(append([]string{"-stats"}, frontierArgs...)...)
	diff := tableDiff(local, fabricOut)
	d.check(diff == "", "the fabric's frontier differs from a single-node run beyond its durations: %s", diff)
	jobs, err := statField(stats, "done")
	d.must(err)
	d.check(jobs > 0, "the local frontier executed no job")
	return jobs
}

// executed is each worker engine's count of the jobs it ran.
func (d *doctor) executed(workers [2]string) (done [2]int64) {
	for i, addr := range workers {
		var s engine.Stats
		d.getJSON(addr, "/v1/stats", &s)
		done[i] = s.Done
	}
	return done
}

// fabric runs one traced frontier through a coordinator and two workers and
// checks its output, each job run and stored once, every process's /metrics,
// the merged trace, the workers' lease logs and /v1/status.
func (d *doctor) fabric() string {
	const coord = "127.0.0.1:19900"
	workers := [2]string{"127.0.0.1:18746", "127.0.0.1:18747"}
	d.fabricUp(coord, workers)
	// Mixed-version guard: the coordinator advertises this protocol version.
	var v cluster.VersionInfo
	d.getJSON(coord, "/v1/version", &v)
	d.check(v.Protocol == cluster.ProtocolVersion, "/v1/version protocol %d, want %d", v.Protocol, cluster.ProtocolVersion)
	trace := d.path("fabric-trace.json")
	out, _ := d.rsr(append([]string{"-cluster", "http://" + coord, "-trace-out", trace}, frontierArgs...)...)
	jobs := d.sameAsLocal(out)

	// The frontier submits every job before waiting on any, so both workers
	// have work at once: each executed some, and between them every job the
	// coordinator accepted exactly once.
	done := d.executed(workers)
	d.check(done[0] > 0 && done[1] > 0 && done[0]+done[1] == jobs,
		"workers executed %v jobs; want each of the sweep's %d jobs exactly once, on both", done, jobs)
	// Every result landed in the coordinator's store through its completion
	// report: one blob per job, and none failed verification.
	blobs, err := os.ReadDir(d.path("cas/blobs"))
	d.must(err)
	blobs = slices.DeleteFunc(blobs, func(e os.DirEntry) bool { return strings.HasPrefix(e.Name(), ".tmp") })
	_, err = os.Stat(d.path("cas/quarantine"))
	d.check(int64(len(blobs)) == jobs && errors.Is(err, os.ErrNotExist),
		"coordinator -casdir holds %d result blobs, want %d, and no quarantine/ (stat: %v)", len(blobs), jobs, err)

	// Each process's /metrics reports that process: the coordinator's carries
	// the workers' engine depth as heartbeat gauges, no rsr_engine_ family.
	m := d.scrape(coord)
	errs := []error{
		m.want("rsr_cluster_workers", 2),
		m.has("rsr_cluster_queue_depth"),
		m.has(`rsr_cluster_inflight{node="worker-a"}`),
		m.has(`rsr_cluster_inflight{node="worker-b"}`),
		m.want("rsr_cluster_jobs_submitted_total", float64(jobs)),
		m.want(`rsr_cluster_items_total{state="done"}`, float64(jobs)),
		m.has(`rsr_cluster_node_engine_queued{node="worker-a"}`),
		m.want("rsr_cluster_sweep_duration_seconds_count", 1),
		m.want(`rsr_cluster_sweep_jobs{state="done"}`, float64(jobs)),
		m.has(`rsr_cluster_node_oldest_lease_age_ms{node="worker-b"}`),
	}
	for k := range m {
		if strings.HasPrefix(k, "rsr_engine_") {
			errs = append(errs, fmt.Errorf("coordinator /metrics carries a worker's engine series %s", k))
		}
	}
	for _, addr := range workers {
		errs = append(errs, d.scrape(addr).has("rsr_engine_jobs_total"))
	}
	d.must(errors.Join(errs...))

	var tr chromeTrace
	d.readJSON(trace, &tr)
	tag, err := checkFabricTrace(tr)
	d.check(err == nil, "merged trace: %v", err)
	// The sweep tag reached each worker with its leases.
	for _, w := range fabricLanes[1:] {
		log, err := os.ReadFile(d.path(w + ".log"))
		d.must(err)
		d.check(leaseLogged(string(log), tag), "%s's log has no `lease started` line naming sweep %s", w, tag)
	}
	// The live status view behind `rsr top` sees both workers and the jobs.
	var st cluster.ClusterStatus
	d.getJSON(coord, "/v1/status", &st)
	nodes := map[string]bool{}
	for _, n := range st.Nodes {
		nodes[n.Node] = true
	}
	d.check(nodes["worker-a"] && nodes["worker-b"] && int64(st.Done) == jobs,
		"/v1/status: nodes %v, %d done; want worker-a and worker-b, %d done", nodes, st.Done, jobs)
	return fmt.Sprintf("2-worker frontier identical to single node but for durations, %d jobs run and stored once each, merged trace, lease logs, per-process metrics, status", jobs)
}

// leaseLogged reports whether log has a `lease started` line of sweep tag.
func leaseLogged(log, tag string) bool {
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, `msg="lease started"`) && slices.Contains(strings.Fields(l), "sweep="+tag) {
			return true
		}
	}
	return false
}

// recovery SIGKILLs a journaled coordinator at its first journaled lease and
// restarts it on the same journal and -casdir: the sweep must still come out
// as a local run's, each job executed once.
func (d *doctor) recovery() string {
	const coord = "127.0.0.1:19920"
	workers := [2]string{"127.0.0.1:18766", "127.0.0.1:18767"}
	journal := d.path("journal")
	rsrc := d.fabricUp(coord, workers, "-journal", journal)
	// The client absorbs the restart (transient retries, idempotent
	// resubmission), so the sweep finishes on its own. Its log holds its
	// table: rsr writes to stderr only when it fails.
	sweep := d.start("sweep", d.exe, append([]string{"-cluster", "http://" + coord}, frontierArgs...)...)
	d.poll(150, 100*time.Millisecond, "no lease was ever journaled", func() bool {
		b, _ := os.ReadFile(filepath.Join(journal, "journal.jsonl"))
		return bytes.Contains(b, []byte(`"kind":"lease"`))
	})
	d.must(rsrc.Process.Kill())
	rsrc.Wait() // "signal: killed"
	fmt.Println("doctor recovery: coordinator SIGKILLed mid-sweep")
	// Down past the workers' heartbeat-failure threshold (3 beats at 1 s):
	// both flip to their reconnect machine, not ride out a blip.
	time.Sleep(4 * time.Second)
	d.coordinator(coord, "-journal", journal)
	fmt.Println("doctor recovery: coordinator restarted on the same journal")
	err := sweep.Wait()
	d.check(err == nil, "the sweep did not survive the coordinator restart: %v", err)
	out, err := os.ReadFile(d.path("sweep.log"))
	d.must(err)
	jobs := d.sameAsLocal(string(out))
	// Nor did anything run twice: the leases in flight at the kill stayed
	// with their workers.
	done := d.executed(workers)
	d.check(done[0]+done[1] == jobs, "workers executed %v jobs; want each of the sweep's %d jobs exactly once", done, jobs)
	// The restarted coordinator was rebuilt from the journal.
	m := d.scrape(coord)
	d.must(errors.Join(
		m.has("rsr_cluster_replay_items_total"),
		m.has("rsr_cluster_journal_records_total"),
		m.has("rsr_cluster_journal_fsync_seconds_count"),
	))
	// Both workers reconnected. The sweep can end while a heartbeat still
	// waits out a reconnect backoff (at most 5 s): allow that and a probe.
	for i, addr := range workers {
		d.poll(60, 200*time.Millisecond, fabricLanes[i+1]+" never reconnected (rsr_peer_reconnects_total < 1)", func() bool {
			_, b, err := d.call(http.MethodGet, addr, "/metrics", "")
			m, _ := parseMetrics(string(b))
			return err == nil && m["rsr_peer_reconnects_total"] >= 1
		})
	}
	return fmt.Sprintf("sweep survived SIGKILL and journal replay, identical to single node but for durations, %d jobs run once each", jobs)
}

// regimen checks the paper's design under its name against the unnamed run,
// every strategy through the walker, and strategies re-run off -cachedir.
func (d *doctor) regimen() string {
	rsr := func(args ...string) (string, string) {
		return d.rsr(append([]string{"-scale", "0.05", "-workloads", "twolf", "-workload", "twolf", "-parallel", "1"}, args...)...)
	}
	// Every line of a run but its wall-clock `time` is deterministic.
	untimed := regexp.MustCompile(`(?m)^time.*\n`)
	unnamed, _ := rsr("run")
	named, _ := rsr("-regimen", "stratified-uniform", "run")
	diff := lineDiff(untimed.ReplaceAllString(unnamed, ""), untimed.ReplaceAllString(named, ""))
	d.check(diff == "", "stratified-uniform diverged from the unnamed run: %s", diff)

	list, _ := rsr("regimens")
	var names []string
	for _, l := range strings.Split(strings.TrimSpace(list), "\n")[1:] {
		names = append(names, strings.Fields(l)[0])
	}
	d.check(len(names) >= 4, "want at least 4 strategy names, got %v", names)
	// The default method is R$BP (20%), so a pass through the region walker
	// logs and reconstructs: an all-zero work line means the outcome did not
	// come from it.
	estimate, work := regexp.MustCompile(`(?m)^estimate +[0-9.]*[1-9]`), regexp.MustCompile(`(?m)^work .*[1-9]`)
	for _, name := range names {
		out, _ := rsr("-regimen", name, "run")
		d.check(estimate.MatchString(out) && work.MatchString(out), "strategy %s reported no estimate or no warm-up work:\n%s", name, out)
	}

	// A cached result carries the time of the run that computed it, so the
	// two tables are equal byte for byte.
	cache := d.path("cache")
	cold, coldStats := rsr("-cachedir", cache, "-stats", "strategies")
	warm, warmStats := rsr("-cachedir", cache, "-stats", "strategies")
	diff = lineDiff(cold, warm)
	d.check(diff == "", "strategies re-run on the same -cachedir printed a different table: %s", diff)
	coldMisses, err1 := statField(coldStats, "misses")
	warmMisses, err2 := statField(warmStats, "misses")
	d.must(errors.Join(err1, err2))
	d.check(coldMisses > 0 && warmMisses == 0,
		"want a cold run with misses and a cached re-run with misses=0, got misses=%d then %d", coldMisses, warmMisses)
	return fmt.Sprintf("stratified-uniform identical to the unnamed run, %d strategies ran through the walker, strategies re-run served from the cache", len(names))
}
