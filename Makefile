# Developer workflow for the rsr reproduction.
#
#   make build       compile everything
#   make test        tier-1 gate: go build ./... && go test ./...
#   make verify      gofmt + vet + race-test the concurrent code paths, fuzz
#                    the three interpreter kernels against Step, the reverse
#                    method's window against its oracle, the timing model
#                    against its one-cycle loop and a replayed functional
#                    trace against fresh execution for 20 s each, run the
#                    sequential identity tests on one CPU, then soak the
#                    engine (its trace store included), the warm-up methods
#                    and the run-ahead feed's tests (sharded, replaying and
#                    recording) under -race -count=20
#   make chaos       race-enabled fault-injection suite (chaos + drain tests)
#   make obs-smoke   end-to-end observability check: rsrd /metrics scrape +
#                    rsr -metrics-out/-trace-out artifacts
#   make cluster-smoke  sweep-fabric check: 1 rsrc coordinator + 2 peer rsrd
#                    workers, sweep output diffed against a single-node run
#   make trace-smoke fabric observability check: merged Chrome trace of a
#                    3-process sweep (coordinator + both worker lanes, sweep
#                    tags, worker spans inside the sweep span), each
#                    process's /metrics reporting that process, /v1/status
#   make shard-smoke sharded-run check: race-enabled full-method sweep over
#                    k run-ahead producers diffed byte-for-byte against one
#   make regimen-smoke  sampling-strategy check: `-regimen stratified-uniform`
#                    diffed byte-for-byte against the unnamed run, then
#                    every registered strategy run end to end at -shards 1
#                    and 2, a non-zero work line required and the two
#                    outputs diffed, then `strategies` twice on one
#                    -cachedir, the second run all cache hits
#   make recovery-smoke  crash-recovery check: SIGKILL the coordinator
#                    mid-sweep, restart it on the same journal, diff the
#                    sweep against a single-node run
#   make bench-smoke the frozen benchmark (bench/, BENCHMARK.json) still builds
#                    and its gates hold: sharded == sequential, and the sweep's
#                    engine result == direct run, re-sweep == cold result
#   make stall-check the innermost loops compile without host stalls:
#                    objdump of funcsim.RunBatch (no record built on the stack),
#                    funcsim.Skip and funcsim.SkipWindow (all three: no call to
#                    a memory accessor; SkipWindow: no append), and
#                    of ooo's per-cycle loops and idle-cycle skip (no divide,
#                    no Duff copy)
#   make examples    every program under examples/ runs to a zero exit
#   make bench-sweep sequential-vs-parallel sweep benchmark at small scale
#   make loc         non-test Go lines per internal package and in total
#   make results     regenerate the committed full-scale outputs
#                    (results_*.txt); about 7 minutes
#   make results-check  regenerate them into a temp dir and diff against the
#                    committed ones with every duration token masked; exits
#                    non-zero on any other difference; about 7 minutes
#   make all         everything above
#
# The benchmark itself is `bash bench/run.sh --workload W` (one workload) or
# `go run ./bench` (all four); `go run ./bench -agree A.json B.json` compares
# two result sets. See bench/README.md.

GO ?= go

.PHONY: all build test verify chaos obs-smoke cluster-smoke trace-smoke shard-smoke recovery-smoke regimen-smoke bench-smoke stall-check examples bench-sweep loc results results-check

all: build test verify chaos obs-smoke cluster-smoke trace-smoke shard-smoke recovery-smoke regimen-smoke bench-smoke stall-check examples

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify keeps the concurrent engine and the simulation substrate it
# schedules race-clean: the engine package owns the worker pool / cache /
# single-flight machinery, and the sampling package carries both the
# fresh-state-per-call concurrency contract the engine relies on and the
# run-ahead feed, whose producers execute every sampled run on goroutines of
# their own — one, or at -shards k a checkpoint pre-pass and k (parallel_test.go's
# byte-identity and cancellation tests run under -race here). The cluster and
# cas packages carry the distributed scheduler and the shared content-addressed
# store, both all-mutex-and-goroutine code. The regimen package's strategies
# drive the same feed and cancellation channel — as engine jobs, from its
# workers — so its byte-identity and cancellation tests run under -race too.
#
# The soak lines are ROADMAP's "green means green" gate: the engine's
# ticket/stats ordering and the feed's slot recycling (a slot reused while
# the walker still reads it) are schedule-dependent, so one clean pass proves
# little; twenty under the race detector do. In the sampling package the
# run-ahead feed — one producer or k, executing or replaying a functional
# trace, and the recording — is what is schedule-dependent; its tests are the
# ones named Parallel, Shard, Capture, RunAhead, SkipLead, Cancel, ZeroAllocs
# or Replay, so those soak; the rest of the package gets its one -race pass
# on the line above, and the identity tests one more pass on a single CPU,
# where the producers and the walker take turns. That trims less than it
# sounds: timed on the two-core host, the feed's tests are most of the
# package's 84 s -race pass (TestParallelAllWorkloadsIdentical alone 29 s),
# and twenty passes of them take about 23 minutes, so the line keeps its
# 60-minute timeout. The fuzz
# lines compare RunBatch, Skip and SkipWindow with Step on generated programs,
# the reverse method on both ingestion paths with its per-instruction oracle
# on generated region lengths, percentages and batch splits, and the timing
# model's event-skipping loop with its one-cycle loop on generated machines
# and streams, and a run replaying a functional trace recorded under another
# spec with a fresh run on generated programs and region lists, for 20 s
# each.
verify:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./internal/obs/... ./internal/engine/... ./internal/sampling/... \
		./internal/regimen/... ./internal/cluster/... ./internal/cas/... ./cmd/rsrd/...
	$(GO) test -run '^$$' -fuzz FuzzRunBatchMatchesStep -fuzztime 20s ./internal/funcsim
	$(GO) test -run '^$$' -fuzz FuzzSkipMatchesStep -fuzztime 20s ./internal/funcsim
	$(GO) test -run '^$$' -fuzz FuzzSkipWindowMatchesStep -fuzztime 20s ./internal/funcsim
	$(GO) test -run '^$$' -fuzz FuzzReverseWindowMatchesOracle -fuzztime 20s ./internal/warmup
	$(GO) test -run '^$$' -fuzz FuzzSimulateMatchesEveryCycle -fuzztime 20s ./internal/ooo
	$(GO) test -run '^$$' -fuzz FuzzReplayMatchesFresh -fuzztime 20s ./internal/sampling
	$(GO) test -race -count=20 ./internal/engine ./internal/warmup
	$(GO) test -cpu 1 -run 'MatchesScalar|SkipLead|RunAhead|Cancel|ByteIdentical|Replay' ./internal/sampling
	$(GO) test -race -count=20 -timeout 60m -run 'Parallel|Shard|Capture|RunAhead|SkipLead|Cancel|ZeroAllocs|Replay' ./internal/sampling

# chaos drives the deterministic fault injector through the engine's real
# cache and run paths under the race detector: injected disk errors, torn
# writes (landed by the cas store's own writer, caught by its verified read)
# and latency must leave results byte-identical to a fault-free run; injected
# worker panics and run errors are isolated, not retried — exactly the jobs
# they hit fail, once, and every other result is unchanged; and a draining
# daemon must finish in-flight jobs.
chaos:
	$(GO) test -race ./internal/fault/...
	$(GO) test -race -run 'Chaos|Fault|Drain|Cancel|Quarantin' \
		./internal/engine/... ./internal/sampling/... ./internal/cluster/... \
		./internal/cas/... ./cmd/rsrd/...

# obs-smoke proves the observability layer end to end without any test
# scaffolding: a real daemon serves /metrics after running a real job, and
# the CLI emits a metrics snapshot plus a Chrome trace. scripts/obs-smoke.sh
# fails if any required metric family or phase span is missing.
obs-smoke: build
	./scripts/obs-smoke.sh

# cluster-smoke proves the sweep fabric end to end with real processes: one
# rsrc coordinator, two peer-mode rsrd workers, and a sweep submitted with
# `rsr -cluster` whose output must be byte-identical to a single-node run.
cluster-smoke: build
	./scripts/cluster-smoke.sh

# trace-smoke proves fabric-wide observability end to end with real
# processes: a sweep through 1 coordinator + 2 workers captured with
# `rsr -cluster -trace-out` must yield one merged Chrome trace with a
# process lane per node, every span sweep-tagged, every worker span inside
# the coordinator lane's sweep span (the lanes share one clock); each worker's
# /metrics must carry its engine families, and the coordinator's must carry
# the workers' heartbeat-borne engine depth and no rsr_engine_ family.
trace-smoke: build
	./scripts/trace-smoke.sh

# recovery-smoke proves coordinator crash recovery end to end with real
# processes: a journaled rsrc is SIGKILLed the moment a lease is journaled,
# restarted on the same journal + CAS directories after the workers' failure
# threshold, and the sweep must still come out byte-identical to a
# single-node run, with replay and reconnect metrics as evidence.
recovery-smoke: build
	./scripts/recovery-smoke.sh

# shard-smoke proves sharded runs end to end with the real CLI: the full
# warm-up sweep (every method, forward and reverse) run under the race
# detector at several shard counts — a pre-pass and k run-ahead producers —
# must be byte-identical to one producer. scripts/shard-smoke.sh diffs the
# sweep tables.
shard-smoke:
	./scripts/shard-smoke.sh

# regimen-smoke proves the sampling-strategy seam end to end with the real
# CLI: `-regimen stratified-uniform` must be byte-identical to the unnamed
# run (only the wall-clock `time` line is filtered), every strategy listed by
# `rsr regimens` must complete a run under the race detector at `-shards 1`
# and `-shards 2` with identical output and a non-zero `work` line (the mark
# of a pass through the region walker), and `strategies` re-run on the same
# -cachedir must be served from it (`-stats`: misses=0).
regimen-smoke:
	./scripts/regimen-smoke.sh

# bench-smoke runs the frozen benchmark's sharded workload for three seconds,
# traced: a change under internal/ that breaks bench/'s compile or its
# correctness gate (sharded == sequential, replay == RunSampled) fails here,
# before the paired parent/change runs. That workload's reference is the
# sharded RunSampled, two producers; skip-heavy follows, traced as well (the replay gate is
# part of the traced run only), so that the in-place replay is also held to the
# in-place RunSampled, where reverse logs into its own capture and seals it at
# EndSkip. The sweep workload is there for an engine or cas change:
# its own gates are engine result == direct run, re-sweep (disk cache only) ==
# cold result, and no failed job. The numbers are ignored.
bench-smoke:
	bash bench/run.sh --workload skip-heavy-sharded --seed 1 --seconds 3 --trace 1
	bash bench/run.sh --workload skip-heavy --seed 1 --seconds 3 --trace 1
	bash bench/run.sh --workload sweep --seed 1 --seconds 3

# stall-check reads the compiled code of the innermost loops, because the
# regressions it guards against change no result and so fail no test: a record
# built in a stack temporary in funcsim.RunBatch (a failed store-to-load
# forward per simulated instruction, 2x on cold stepping), a call to a guest
# memory accessor from RunBatch or Skip (the page cache no longer inlined),
# and a hardware divide or a whole-entry copy in ooo's per-cycle loops and
# idle-cycle skip.
stall-check:
	./scripts/stall-check.sh

# examples proves the facade's worked examples still run, not just compile
# (`go build ./...` only compiles them): each one, default flags, exit 0.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

bench-sweep:
	$(GO) test -run '^$$' -bench BenchmarkTable2SweepParallelism -benchtime 1x .

# loc prints the count simplicity PRs quote in CHANGES.md: non-test Go lines
# of every internal package, then of internal and cmd together.
loc:
	@for d in internal/*; do printf '%-22s %6d\n' $$d $$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); done; \
	printf '%-22s %6d\n' 'internal cmd' $$(find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)

# results regenerates the three committed outputs EXPERIMENTS.md quotes, at the
# reference configuration (scale 1.0, seed 2007). Every column but the
# wall-clock ones is deterministic, so after a change that claims byte
# identity `git diff` of these files may show time columns only. Figure 7 is
# also run alone at -parallel 1 -shards 1: per-run times no other job or shard
# goroutine competed with, which is what its cost ordering is read from.
results:
	$(GO) run ./cmd/rsr all > results_reference.txt
	$(GO) run ./cmd/rsr -parallel 1 -shards 1 fig7 > results_fig7_sequential.txt
	$(GO) run ./cmd/rsr strategies > results_strategies.txt

# results-check is the byte-identity check for a change that claims the same
# results: it regenerates the three files above into a temporary directory and
# diffs them against the committed ones with every Go duration token (812µs,
# 224.5ms, 1.23s, 1m2.5s) and its padding masked. Any other difference fails.
results-check:
	./scripts/results-check.sh
