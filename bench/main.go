// Command bench is the repository's cost ledger: four workloads, the
// end-to-end metrics a user of the simulator sees, and a per-layer replay
// that says where the host time went. README.md has the tables; the metric
// names are defined once, in metrics.go.
//
// Usage:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run; the last
//	      line of standard output is the result as one JSON object
//	bench -seed N [-quick] [-out FILE]   all four workloads, untraced then
//	      traced, as tables; -out also writes the result set as JSON
//	bench -agree A.json B.json           compare two result sets against
//	      the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// result is one workload's outcome in a result set.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// resultSet is what -out writes and -agree reads: every workload's
// end-to-end and per-layer readings from one invocation.
type resultSet struct {
	Seed      int64             `json:"seed"`
	GoVersion string            `json:"go_version"`
	Procs     int               `json:"gomaxprocs"`
	Commit    string            `json:"commit"`
	Workloads map[string]result `json:"workloads"`
}

// runWorkload runs one workload once, traced or not, and returns its report.
func runWorkload(w workloadDef, cfg config) (*report, error) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if cfg.Quick {
		w = w.quick()
	}
	rep := newReport(defs)
	var err error
	switch {
	case w.Sweep:
		err = runSweep(w, cfg, rep)
	case cfg.Trace:
		err = runSoloTraced(w, cfg, rep)
	default:
		err = runSolo(w, cfg, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.finish()
	return rep, nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "", "run this one workload and print its result as the last line")
	seed := flags.Int64("seed", 2007, "places the clusters and orders the sweep's submissions")
	seconds := flags.Float64("seconds", 20, "how long one run measures")
	trace := flags.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	quick := flags.Bool("quick", false, "smoke-test scale: a twentieth of the work, two rounds")
	out := flags.String("out", "", "write the result set here as JSON (all-workloads mode)")
	outDir := flags.String("outdir", "bench/out", "traces and scratch cache directories go here")
	agree := flags.Bool("agree", false, "compare two result sets: bench -agree A.json B.json")
	bounds := flags.String("bounds", "BENCHMARK.json", "with -agree, where the bounds are")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -agree A.json B.json")
			return 2
		}
		return agreeCmd(*bounds, flags.Arg(0), flags.Arg(1), stdout, stderr)
	}

	runtime.GOMAXPROCS(hostProcs)
	cfg := config{Seed: *seed, Seconds: *seconds, Quick: *quick, OutDir: *outDir}
	fmt.Fprintf(stdout, "bench: %s GOMAXPROCS=%d shards=%d workers=%d seed=%d commit=%s\n",
		runtime.Version(), hostProcs, shards, workers, cfg.Seed, commit())

	if *workload != "" {
		w, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cfg.Trace = *trace != 0
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rep.print(stdout, w.Name)
		// The contract's result line: value and unit only.
		type valueUnit struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}{rep.correct(), rep.Attempted, rep.Failed, make(map[string]valueUnit)}
		for name, rd := range rep.Readings {
			line.Metrics[name] = valueUnit{rd.Value, rd.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		if !rep.correct() {
			return 1
		}
		return 0
	}

	set := resultSet{Seed: cfg.Seed, GoVersion: runtime.Version(), Procs: hostProcs, Commit: commit(), Workloads: make(map[string]result)}
	status := 0
	for _, w := range workloads {
		res := result{Correct: true, Metrics: make(map[string]reading)}
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			rep, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.print(stdout, fmt.Sprintf("%s (trace %v)", w.Name, traced))
			res.Correct = res.Correct && rep.correct()
			res.Attempted += rep.Attempted
			res.Failed += rep.Failed
			for name, rd := range rep.Readings {
				res.Metrics[name] = rd
			}
		}
		if !res.Correct {
			status = 1
		}
		set.Workloads[w.Name] = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
