package ooo

import (
	"fmt"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/trace"
	"rsr/internal/workload"
)

// oddConfig sizes every ring to a non-power-of-two: a wrap written as a mask
// (or a shift) instead of a true modulus diverges from the table below.
func oddConfig() Config {
	cfg := DefaultConfig()
	cfg.ROBSize = 48
	cfg.IQSize = 24
	cfg.LSQSize = 40
	cfg.FetchQueueSize = 12
	return cfg
}

// goldenRegions runs the pinned scenario: 100k instructions skipped cold, then
// three consecutive 20k-instruction regions on one Sim over one hierarchy and
// predictor, so later regions see the state (and the ring positions) the
// earlier ones left behind.
func goldenRegions(t *testing.T, name string, cfg Config) [3]Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	fs := funcsim.New(w.Build())
	if n, err := fs.Skip(100_000); err != nil || n != 100_000 {
		t.Fatalf("%s: skipped %d, %v", name, n, err)
	}
	sim := New(cfg, mem.NewHierarchy(mem.DefaultHierarchyConfig()), bpred.NewUnit(bpred.DefaultConfig()))
	src := &batchSource{fs: fs, buf: make([]trace.DynInst, funcsim.BatchSize)}
	var out [3]Result
	for i := range out {
		out[i] = sim.SimulateSource(20_000, src)
	}
	if src.err != nil {
		t.Fatalf("%s: %v", name, src.err)
	}
	return out
}

// batchSource feeds the timing model from a live functional simulator, one
// RunBatch per Fill clamped to max, so a region never runs past its end.
type batchSource struct {
	fs  *funcsim.Sim
	buf []trace.DynInst
	err error
}

func (s *batchSource) Fill(max uint64) []trace.DynInst {
	if s.err != nil {
		return nil
	}
	b := s.buf[:min(max, uint64(len(s.buf)))]
	n, err := s.fs.RunBatch(b)
	s.err = err
	return b[:n]
}

// ooo.Result{Instructions, Cycles, Branches, Mispredicts, Forwards} per region.
var goldenResults = map[string][3]Result{
	"default/ammp":   {{20000, 61225, 3062, 496, 0}, {20000, 60605, 3063, 483, 0}, {20000, 60489, 3063, 478, 0}},
	"default/art":    {{20000, 197444, 2224, 43, 0}, {20000, 118862, 2223, 2, 0}, {20000, 118862, 2223, 2, 0}},
	"default/gcc":    {{20000, 13586, 3334, 17, 0}, {20000, 13340, 3333, 0, 0}, {20000, 13339, 3333, 0, 0}},
	"default/mcf":    {{20000, 8939, 1428, 18, 0}, {20000, 8580, 1429, 0, 0}, {20000, 8578, 1429, 0, 0}},
	"default/parser": {{20000, 36964, 4991, 2123, 0}, {20000, 27861, 4989, 2119, 0}, {20000, 27817, 4975, 2117, 0}},
	"default/perl":   {{20000, 77571, 3717, 948, 39}, {20000, 23046, 3711, 889, 21}, {20000, 19444, 3724, 875, 7}},
	"default/twolf":  {{20000, 52649, 3238, 1257, 0}, {20000, 20194, 3239, 1087, 0}, {20000, 19335, 3240, 1007, 0}},
	"default/vortex": {{20000, 254923, 1935, 782, 0}, {20000, 215176, 1935, 630, 0}, {20000, 198754, 1937, 636, 0}},
	"default/vpr":    {{20000, 76956, 3201, 1224, 0}, {20000, 53261, 3200, 1204, 0}, {20000, 41716, 3201, 1199, 0}},
	"odd/ammp":       {{20000, 61379, 3062, 496, 0}, {20000, 60612, 3063, 482, 0}, {20000, 60582, 3063, 479, 0}},
	"odd/art":        {{20000, 197444, 2224, 41, 0}, {20000, 118862, 2223, 2, 0}, {20000, 118862, 2223, 2, 0}},
	"odd/gcc":        {{20000, 13586, 3334, 17, 0}, {20000, 13340, 3333, 0, 0}, {20000, 13339, 3333, 0, 0}},
	"odd/mcf":        {{20000, 8965, 1428, 17, 0}, {20000, 8580, 1429, 0, 0}, {20000, 8577, 1429, 0, 0}},
	"odd/parser":     {{20000, 38301, 4991, 2129, 0}, {20000, 28258, 4989, 2116, 0}, {20000, 28204, 4975, 2115, 0}},
	"odd/perl":       {{20000, 77933, 3717, 945, 24}, {20000, 23120, 3711, 884, 14}, {20000, 19493, 3724, 873, 3}},
	"odd/twolf":      {{20000, 52814, 3238, 1263, 0}, {20000, 20493, 3239, 1108, 0}, {20000, 19813, 3240, 1044, 0}},
	"odd/vortex":     {{20000, 254412, 1935, 782, 0}, {20000, 214584, 1935, 630, 0}, {20000, 198150, 1937, 636, 0}},
	"odd/vpr":        {{20000, 77312, 3201, 1224, 0}, {20000, 53799, 3200, 1204, 0}, {20000, 42366, 3201, 1200, 0}},
}

// TestGoldenResults pins the timing model's results on the nine workloads.
// The table is data, not derivation (captured at commit df20bc4): a change to
// sim.go that is meant to cost less host time, not to model a different
// machine, must reproduce it bit for bit.
func TestGoldenResults(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"odd", oddConfig()}}
	for _, c := range configs {
		for _, name := range workload.Names() {
			key := c.name + "/" + name
			got := goldenRegions(t, name, c.cfg)
			if want := goldenResults[key]; got != want {
				t.Errorf("%s:\n got  %s\n want %s", key, goldenRow(key, got), goldenRow(key, want))
			}
		}
	}
}

// goldenRow formats a table row as it appears in goldenResults.
func goldenRow(key string, rs [3]Result) string {
	s := fmt.Sprintf("%q: {", key)
	for i, r := range rs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d, %d, %d, %d}", r.Instructions, r.Cycles, r.Branches, r.Mispredicts, r.Forwards)
	}
	return s + "},"
}

// stoppingSource is a batchSource that is a Stopper: it counts the polls and
// asks to stop from the poll numbered stopAt on (never when it is 0).
type stoppingSource struct {
	batchSource
	polls, stopAt int
}

func (s *stoppingSource) Stopped() bool {
	s.polls++
	return s.stopAt > 0 && s.polls >= s.stopAt
}

// TestSimulateSourcePollsStopper: SimulateSource asks a Stopper source once
// every stopPoll loop iterations whether to stop — not only when it fills, so
// a wedged or slow hot window still hears a cancel — and a source that never
// asks leaves the region's result as a plain source's; one that asks ends the
// region at that poll, short of its budget.
func TestSimulateSourcePollsStopper(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	run := func(src Source) Result {
		return New(DefaultConfig(), mem.NewHierarchy(mem.DefaultHierarchyConfig()), bpred.NewUnit(bpred.DefaultConfig())).SimulateSource(n, src)
	}
	plain := func() batchSource {
		return batchSource{fs: funcsim.New(w.Build()), buf: make([]trace.DynInst, funcsim.BatchSize)}
	}
	src := plain()
	want := run(&src)
	never := &stoppingSource{batchSource: plain()}
	if got := run(never); got != want || never.polls == 0 {
		t.Fatalf("with %d polls that never stop: %+v, want %+v", never.polls, got, want)
	}
	stop := &stoppingSource{batchSource: plain(), stopAt: 1}
	if got := run(stop); stop.polls != 1 || got.Instructions >= n || got.Instructions == 0 {
		t.Fatalf("stopped at the first of %d polls: %+v", stop.polls, got)
	}
}
