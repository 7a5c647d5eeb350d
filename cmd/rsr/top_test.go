package main

import (
	"strings"
	"testing"
	"time"

	"rsr/internal/cluster"
)

func TestRenderStatusSortsStragglersFirst(t *testing.T) {
	st := cluster.ClusterStatus{
		Queued: 4, Running: 2, Done: 10, Failed: 1, Sweeps: 1,
		JournalFsyncs: 42, JournalFsyncMeanMS: 0.8, JournalFsyncP99MS: 2.5,
		Nodes: []cluster.NodeStatus{
			{Node: "worker-a", Inflight: 1, BeatAgeMS: 120,
				OldestLeaseAgeMS: 900, OldestLeaseJob: "abcd1234"},
			{Node: "worker-b", Inflight: 2, BeatAgeMS: 80,
				OldestLeaseAgeMS: 4_200, OldestLeaseJob: "ef567890"},
		},
	}
	out := renderStatus(st, time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC))

	for _, want := range []string{
		"accepting",
		"jobs: queued 4  running 2  done 10  failed 1  sweeps 1",
		"journal: 42 fsyncs  mean 0.80ms  p99 ≤ 2.50ms",
		"worker-a", "worker-b", "abcd1234", "ef567890",
		"4.2s",  // worker-b's straggler age
		"900ms", // worker-a's straggler age
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// worker-b holds the oldest lease, so its row must come first.
	if strings.Index(out, "worker-b") > strings.Index(out, "worker-a") {
		t.Errorf("straggler worker-b not sorted first:\n%s", out)
	}
}

func TestRenderStatusEmptyFabric(t *testing.T) {
	out := renderStatus(cluster.ClusterStatus{Draining: true}, time.Now())
	if !strings.Contains(out, "draining") || !strings.Contains(out, "no live workers") {
		t.Errorf("empty-fabric frame wrong:\n%s", out)
	}
}

func TestFmtMS(t *testing.T) {
	for _, tc := range []struct {
		ms   int64
		want string
	}{{0, "0ms"}, {999, "999ms"}, {1500, "1.5s"}, {59_999, "60.0s"}, {192_000, "3m12s"}} {
		if got := fmtMS(tc.ms); got != tc.want {
			t.Errorf("fmtMS(%d) = %q, want %q", tc.ms, got, tc.want)
		}
	}
}
