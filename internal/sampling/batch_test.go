package sampling

import (
	"reflect"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/warmup"
)

// syntheticWorkload builds an endless loop with memory traffic, data-dependent
// branches, and call/return pairs — enough microarchitectural variety to
// exercise every warm-up method without importing the workload package.
func syntheticWorkload() *prog.Program {
	b := prog.NewBuilder("synthetic")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 1)
	b.Label("loop")
	b.Op3(isa.OpAdd, 3, 3, 2)
	b.Shli(4, 3, 3)
	b.Andi(4, 4, 0x3FF8)
	b.Op3(isa.OpAdd, 5, 1, 4)
	b.St(5, 3, 0)
	b.Ld(6, 5, 0)
	b.Op3(isa.OpMul, 7, 6, 3)
	b.Andi(8, 3, 1)
	b.Branch(isa.OpBeq, 8, 0, "even")
	b.Op3(isa.OpXor, 9, 9, 7)
	b.Label("even")
	b.Call(31, "leaf")
	b.Andi(10, 3, 63)
	b.Branch(isa.OpBne, 10, 0, "loop")
	b.Jmp("loop")
	b.Label("leaf")
	b.Addi(11, 11, 1)
	b.Ret(31)
	return b.MustBuild()
}

// TestRunSampledMatchesScalarReference is the controller-level equivalence
// property: for every warm-up method in the paper's matrix, the batched
// sampled run must reproduce the scalar reference result exactly — clusters,
// work counters, and instruction accounting.
func TestRunSampledMatchesScalarReference(t *testing.T) {
	p := syntheticWorkload()
	m := DefaultMachine()
	reg := Regimen{ClusterSize: 500, NumClusters: 8}
	const total, seed = 80_000, 7
	for _, spec := range warmup.Matrix() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			want, err := runSampledScalar(p, m, reg, total, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSampled(p, m, reg, total, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			want.Elapsed, got.Elapsed = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched run diverged from scalar reference:\nscalar:  %+v\nbatched: %+v", want, got)
			}
		})
	}
}

// TestRunFullMatchesScalarReference pins the full-run path the same way.
func TestRunFullMatchesScalarReference(t *testing.T) {
	p := syntheticWorkload()
	m := DefaultMachine()
	const total = 20_000

	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	sim := ooo.New(m.CPU, hier, unit)
	fs := funcsim.New(p)
	src := &stepSource{fs: fs}
	want := sim.SimulateSource(total, src)
	if src.err != nil {
		t.Fatal(src.err)
	}

	got, err := RunFull(p, m, total)
	if err != nil {
		t.Fatal(err)
	}
	if want != got.Result {
		t.Fatalf("full run diverged:\nscalar:  %+v\nbatched: %+v", want, got.Result)
	}
}
