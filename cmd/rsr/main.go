// Command rsr regenerates the paper's tables and figures and runs ad-hoc
// simulations.
//
// Usage:
//
//	rsr [flags] <command>
//
// Commands:
//
//	list       list workloads and warm-up methods
//	table1     true IPC and sampling regimen per workload
//	table2     the warm-up method matrix
//	fig5       cache-only warm-up comparison
//	fig6       branch-predictor-only warm-up comparison
//	fig7       combined warm-up comparison
//	fig8       per-benchmark Reverse vs SMARTS
//	fig9       SimPoint comparison
//	appendix   confidence tests, relative error, and time for all methods
//	sweep      warm-up percentage sweep on one workload (use -workload)
//	all        every table and figure, in order
//	run        one sampled run (use -workload, -method, and optionally
//	           -regimen to pick the sampling strategy)
//	regimens   list the pluggable sampling strategies
//	strategies sampling-strategy head-to-head: every registered strategy on
//	           the lab's workloads, scored against the true IPC
//	top        live cluster status view (requires -cluster): queue depth,
//	           in-flight leases, shard utilization, stragglers, journal
//	           fsync latency, refreshed every second until interrupted
//
// Flags:
//
//	-cluster url   run jobs on a sweep-fabric coordinator (cmd/rsrc) instead
//	               of a local engine, e.g. -cluster http://host:9900
//	-scale f       scale workload length (1.0 = 20M instructions)
//	-seed n        cluster placement seed
//	-workloads s   comma-separated workload subset
//	-parallel n    engine worker-pool size (0 = GOMAXPROCS; 1 for clean per-run wall times)
//	-shards n      run-ahead producers inside each sampled run that executes
//	               (default GOMAXPROCS; 1 = one; a run replaying its
//	               placement's trace uses one; byte-identical either way);
//	               applies to every figure, fig9's SimPoint arms included,
//	               and to `run` under any -regimen, simpoint too
//	-cachedir s    content-addressed result cache directory (persists runs
//	               across invocations; an internal/cas store: blobs/, index/,
//	               quarantine/ — caches of the older <hash>.json layout are ignored)
//	-stats         print engine scheduler/cache statistics to stderr when done
//	-workload s    workload for `run`
//	-method s      method label for `run` (e.g. "R$BP (20%)", "S$BP", "None")
//	-regimen s     sampling strategy for `run` (see `rsr regimens`), an
//	               engine job like any other; empty, or "stratified-uniform",
//	               is the paper's design, one job under either name. Like
//	               every flag, it must precede the command:
//	               `rsr -regimen ranked-set run`
//	-cpuprofile f  write a CPU profile to f
//	-memprofile f  write an allocation profile to f on exit
//	-metrics-out f write a JSON metrics snapshot to f on exit
//	-trace-out f   write a Chrome trace (chrome://tracing, ui.perfetto.dev)
//	               of every run's per-cluster phases to f on exit; with
//	               -cluster, the coordinator's merged fabric trace — one
//	               process lane per node — is fetched instead
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
	"rsr/internal/experiments"
	"rsr/internal/obs"
	"rsr/internal/regimen"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// clusterRunner adapts the cluster client to the lab's Runner seam.
type clusterRunner struct{ c *cluster.Client }

func (r clusterRunner) Submit(ctx context.Context, job engine.Job) (experiments.Waiter, error) {
	t, err := r.c.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (r clusterRunner) Close() {}

func main() {
	clusterAddr := flag.String("cluster", "", "sweep-fabric coordinator URL (e.g. http://host:9900); jobs run on its workers instead of a local engine")
	scale := flag.Float64("scale", 1.0, "workload length scale (1.0 = 20M instructions)")
	seed := flag.Int64("seed", 2007, "cluster placement seed")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload subset")
	parallel := flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS; use 1 for clean per-run wall times)")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "run-ahead producers per sampled run that executes, fig9 and every -regimen included (1 = one; results byte-identical at any count)")
	cacheDir := flag.String("cachedir", "", "content-addressed result cache directory (empty = memory-only)")
	stats := flag.Bool("stats", false, "print engine scheduler/cache statistics to stderr when done")
	format := flag.String("format", "text", "output format: text, csv, or json")
	workloadFlag := flag.String("workload", "twolf", "workload for `run`")
	methodFlag := flag.String("method", "R$BP (20%)", "warm-up method label for `run`")
	regimenFlag := flag.String("regimen", "", "sampling strategy for `run` (empty or stratified-uniform = the paper's design; see `rsr regimens`)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file` on exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (engine, phase, warm-up families) to `file` on exit")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of every run's phases to `file` on exit (open in chrome://tracing or ui.perfetto.dev)")
	flag.Parse()

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsr: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rsr: -cpuprofile:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	// Observability sinks are built up front so the lab's engine and every
	// run record into them; their files are written by flush below.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}

	// Flushing is explicit (the error path exits via os.Exit, skipping
	// defers) and idempotent, because it runs from two places: the end of
	// main and the signal handler below.
	var flushOnce sync.Once
	var flushErr error
	flush := func() {
		flushOnce.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *memProfile != "" {
				if perr := writeMemProfile(*memProfile); perr != nil {
					fmt.Fprintln(os.Stderr, "rsr: -memprofile:", perr)
					flushErr = perr
				}
			}
			if reg != nil {
				if perr := writeMetrics(reg, *metricsOut); perr != nil {
					fmt.Fprintln(os.Stderr, "rsr: -metrics-out:", perr)
					flushErr = perr
				}
			}
			if tracer != nil {
				if perr := writeTrace(tracer, *traceOut); perr != nil {
					fmt.Fprintln(os.Stderr, "rsr: -trace-out:", perr)
					flushErr = perr
				}
			}
		})
	}

	// An interrupted sweep is exactly when a profile is most wanted: flush
	// on SIGINT/SIGTERM too, then exit with the conventional 128+signal
	// status.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		flush()
		signal.Stop(sig)
		if sn, ok := s.(syscall.Signal); ok {
			os.Exit(128 + int(sn))
		}
		os.Exit(1)
	}()

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Parallelism = *parallel
	cfg.CacheDir = *cacheDir
	cfg.Shards = *shards
	cfg.Metrics = reg
	cfg.Tracer = tracer
	if *workloadsFlag != "" {
		cfg.Workloads = strings.Split(*workloadsFlag, ",")
	}
	var clusterClient *cluster.Client
	if *clusterAddr != "" {
		// One sweep tag for the whole invocation (X-Sweep-ID): the coordinator
		// groups every job of this invocation into one traceable sweep, every
		// worker stamps the tag on the job's spans and its lease log line, and
		// -trace-out below fetches the sweep's merged fabric trace.
		cl := cluster.NewClient(*clusterAddr, nil)
		cl.SetSweep("rsr-" + cluster.NewRequestIDs().Next())
		if _, err := cl.Handshake(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "rsr: -cluster:", err)
			os.Exit(1)
		}
		cfg.Runner = clusterRunner{cl}
		clusterClient = cl
	}

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	if cmd == "top" {
		if clusterClient == nil {
			fmt.Fprintln(os.Stderr, "rsr: top requires -cluster URL")
			os.Exit(2)
		}
		if err := runTop(clusterClient, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rsr:", err)
			os.Exit(1)
		}
		return
	}
	err := dispatch(cmd, cfg, *workloadFlag, *methodFlag, *regimenFlag, *format, *stats)

	// In cluster mode the spans live on the fabric, not in this process:
	// -trace-out captures the coordinator's merged fabric trace (coordinator
	// lane plus one lane per worker) for this invocation's sweep tag. A fetch
	// failure falls back to the (likely empty) local ring so the flag still
	// produces a parseable file.
	if clusterClient != nil && tracer != nil && err == nil {
		if terr := writeFabricTrace(clusterClient, *traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, "rsr: -trace-out: fabric trace:", terr)
		} else {
			tracer = nil // flushed; skip the local writeTrace
		}
	}

	flush()
	if err == nil {
		err = flushErr
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "rsr:", err)
		os.Exit(1)
	}
}

// writeMemProfile records the allocation profile after a final GC so the
// heap numbers reflect live state, matching `go test -memprofile`.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(reg.Snapshot())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFabricTrace downloads the coordinator's merged fabric trace for this
// invocation's sweep tag and writes it to path.
func writeFabricTrace(cl *cluster.Client, path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	trace, err := cl.FetchSweepTrace(ctx, cl.Sweep())
	if err != nil {
		return err
	}
	return os.WriteFile(path, trace, 0o644)
}

// writeTrace dumps the span ring as Chrome trace-event JSON.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "rsr: -trace-out: ring wrapped, oldest %d spans overwritten\n", dropped)
	}
	return err
}

func dispatch(cmd string, cfg experiments.Config, wl, method, regimenName, format string, stats bool) error {
	lab := experiments.NewLab(cfg)
	defer lab.Close()
	if stats && lab.Engine() != nil {
		defer func() {
			s := lab.Engine().Stats()
			fmt.Fprintf(os.Stderr,
				"engine: workers=%d done=%d failed=%d cache hits=%d (disk %d) misses=%d coalesced=%d panics=%d quarantined=%d wall=%v\n",
				lab.Engine().Workers(), s.Done, s.Failed, s.CacheHits, s.DiskHits, s.CacheMisses,
				s.Coalesced, s.Panics, s.Quarantined, s.Wall)
		}()
	}
	switch cmd {
	case "list":
		fmt.Println("workloads:")
		for _, w := range workload.All() {
			fmt.Printf("  %-8s %s\n", w.Name, w.Description)
		}
		fmt.Println("\nwarm-up methods:")
		for _, s := range warmup.Matrix() {
			fmt.Printf("  %s\n", s.Label())
		}
		return nil
	case "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "appendix", "strategies":
		t, err := tabulate(lab, cmd)
		if err != nil {
			return err
		}
		return t.emit(format)
	case "table2":
		fmt.Println("Table 2: warm-up method experiments")
		for _, s := range warmup.Matrix() {
			fmt.Printf("  %-12s kind=%v cache=%v bpred=%v percent=%d\n",
				s.Label(), s.Kind, s.Cache, s.BPred, s.Percent)
		}
		return nil
	case "all":
		for i, id := range []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "appendix"} {
			t, err := tabulate(lab, id)
			if err != nil {
				return err
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(t.text)
		}
		return nil
	case "regimens":
		fmt.Println("sampling strategies (rsr -regimen <name> run; flags precede the command):")
		fmt.Printf("  %-22s %s\n", regimen.PaperDesign,
			"the paper's design: stratified-uniform placement, mean-cluster-CPI estimator (also the default)")
		for _, s := range regimen.All() {
			fmt.Printf("  %-22s %s\n", s.Name(), s.Describe())
		}
		return nil
	case "sweep":
		// The workload name is user input: fail on a typo instead of
		// silently sweeping under the default regimen.
		if _, err := experiments.RegimenForStrict(wl); err != nil {
			return err
		}
		rev, fp, err := lab.Sweep(wl, nil)
		if err != nil {
			return err
		}
		fmt.Printf("Warm-up percentage sweep on %s\n", wl)
		fmt.Printf("%8s %12s %12s %14s %14s\n", "percent", "reverse RE", "fixed RE", "reverse work", "fixed work")
		for i := range rev {
			fmt.Printf("%7d%% %11.2f%% %11.2f%% %14d %14d\n",
				rev[i].Percent, 100*rev[i].Cell.RelErr, 100*fp[i].Cell.RelErr,
				rev[i].Cell.Work.ReconScanned+rev[i].Cell.Work.ReconApplied,
				fp[i].Cell.Work.WarmOps)
		}
		return nil
	case "run":
		spec, err := warmup.SpecByLabel(method)
		if err != nil {
			return fmt.Errorf("%w (see `rsr list`)", err)
		}
		// The workload name is user input: fail on a typo instead of
		// silently running the default regimen. (A mistyped -regimen is
		// refused by the engine, which lists the registered names.)
		if _, err := experiments.RegimenForStrict(wl); err != nil {
			return err
		}
		cell, err := lab.RunStrategy(wl, regimenName, spec)
		if err != nil {
			return err
		}
		fmt.Printf("workload   %s\nmethod     %s\ntrue IPC   %.4f\nestimate   %.4f\nrel error  %.4f\nconfident  %v\ntime       %v\nwork       %+v\n",
			cell.Workload, cell.Method, cell.TrueIPC, cell.Estimate, cell.RelErr,
			cell.Confident, cell.Elapsed, cell.Work)
		if cell.ProfileInstructions > 0 {
			fmt.Printf("profile    %d instructions\n", cell.ProfileInstructions)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (try: list, table1, table2, fig5, fig6, fig7, fig8, fig9, appendix, sweep, all, run, regimens, strategies, top)", cmd)
	}
}

// table is one command's result in each -format: the value json marshals
// whole, the csv writer that flattens its rows (every cell table under one
// header), and the text rendering.
type table struct {
	value any
	csv   func(io.Writer) error
	text  string
}

// cellTable is the table of a result whose rows are cells.
func cellTable(value any, cells []experiments.Cell, text string) table {
	return table{value, func(w io.Writer) error { return experiments.WriteCellsCSV(w, cells) }, text}
}

// tabulate runs one of the commands that print a table.
func tabulate(lab *experiments.Lab, cmd string) (table, error) {
	switch cmd {
	case "table1":
		rows, err := lab.Table1()
		if err != nil {
			return table{}, err
		}
		return table{rows, func(w io.Writer) error { return experiments.WriteTable1CSV(w, rows) }, experiments.RenderTable1(rows)}, nil
	case "appendix":
		cells, err := lab.Appendix()
		if err != nil {
			return table{}, err
		}
		return cellTable(cells, cells, experiments.RenderAppendix(cells)), nil
	case "strategies":
		cells, err := lab.StrategyHeadToHead()
		if err != nil {
			return table{}, err
		}
		return cellTable(cells, cells, experiments.RenderStrategies(cells)), nil
	case "fig9":
		f, err := lab.Figure9()
		if err != nil {
			return table{}, err
		}
		return cellTable(f, f.Cells, experiments.RenderFigure9(f)), nil
	}
	f, err := figure(lab, cmd)
	if err != nil {
		return table{}, err
	}
	return cellTable(f, f.Cells, f.Render()), nil
}

func figure(lab *experiments.Lab, id string) (*experiments.FigureResult, error) {
	switch id {
	case "fig5":
		return lab.Figure5()
	case "fig6":
		return lab.Figure6()
	case "fig7":
		return lab.Figure7()
	default:
		return lab.Figure8()
	}
}

// emit writes the table to stdout in format (text, csv or json).
func (t table) emit(format string) error {
	switch format {
	case "json":
		return experiments.WriteJSON(os.Stdout, t.value)
	case "csv":
		return t.csv(os.Stdout)
	}
	fmt.Print(t.text)
	return nil
}
