package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rsr/internal/cluster"
)

// topEvery is the status poll-and-redraw period of `rsr top`.
const topEvery = time.Second

// topFailBudget bounds consecutive poll failures before `rsr top` gives up
// on the coordinator rather than redrawing a stale screen forever.
const topFailBudget = 10

// runTop polls the coordinator's /v1/status once a second and redraws a
// terminal dashboard until the process is interrupted (the main signal
// handler owns SIGINT/SIGTERM) or the coordinator stays unreachable past
// the failure budget.
func runTop(cl *cluster.Client, w io.Writer) error {
	fails := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), topEvery)
		st, err := cl.FetchStatus(ctx)
		cancel()
		if err != nil {
			if fails++; fails >= topFailBudget {
				return fmt.Errorf("top: coordinator unreachable after %d polls: %w", fails, err)
			}
			fmt.Fprintf(w, "rsr top: poll failed (%d/%d): %v\n", fails, topFailBudget, err)
		} else {
			fails = 0
			// ANSI clear + home, then one full frame: simpler and more
			// portable than cursor bookkeeping, and flicker-free enough at
			// one frame a second.
			fmt.Fprint(w, "\x1b[2J\x1b[H")
			fmt.Fprint(w, renderStatus(st, time.Now()))
		}
		time.Sleep(topEvery)
	}
}

// renderStatus formats one ClusterStatus snapshot as the `rsr top` frame.
// Pure so it can be unit-tested; now stamps the header.
func renderStatus(st cluster.ClusterStatus, now time.Time) string {
	var b strings.Builder
	state := "accepting"
	if st.Draining {
		state = "draining"
	}
	fmt.Fprintf(&b, "rsr top — %s — %s\n", now.Format("15:04:05"), state)
	fmt.Fprintf(&b, "jobs: queued %d  running %d  done %d  failed %d  sweeps %d\n",
		st.Queued, st.Running, st.Done, st.Failed, st.Sweeps)
	if st.JournalFsyncs > 0 {
		fmt.Fprintf(&b, "journal: %d fsyncs  mean %.2fms  p99 ≤ %.2fms\n",
			st.JournalFsyncs, st.JournalFsyncMeanMS, st.JournalFsyncP99MS)
	}
	b.WriteString("\n")
	if len(st.Nodes) == 0 {
		b.WriteString("no live workers\n")
		return b.String()
	}
	// Stragglers first: the node with the oldest in-flight lease is the one
	// an operator wants to look at.
	nodes := append([]cluster.NodeStatus(nil), st.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].OldestLeaseAgeMS != nodes[j].OldestLeaseAgeMS {
			return nodes[i].OldestLeaseAgeMS > nodes[j].OldestLeaseAgeMS
		}
		return nodes[i].Node < nodes[j].Node
	})
	fmt.Fprintf(&b, "%-16s %5s %7s %10s %s\n",
		"node", "lease", "beat", "slowest", "job")
	for _, n := range nodes {
		slowest := "-"
		job := ""
		if n.OldestLeaseAgeMS > 0 {
			slowest = fmtMS(n.OldestLeaseAgeMS)
			job = n.OldestLeaseJob
		}
		fmt.Fprintf(&b, "%-16s %5d %7s %10s %s\n",
			n.Node, n.Inflight, fmtMS(n.BeatAgeMS), slowest, job)
	}
	return b.String()
}

// fmtMS renders a millisecond age compactly: "320ms", "4.2s", "3m12s".
func fmtMS(ms int64) string {
	switch {
	case ms < 1000:
		return fmt.Sprintf("%dms", ms)
	case ms < 60_000:
		return fmt.Sprintf("%.1fs", float64(ms)/1000)
	default:
		return fmt.Sprintf("%dm%02ds", ms/60_000, (ms%60_000)/1000)
	}
}
