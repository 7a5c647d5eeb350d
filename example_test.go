package rsr_test

import (
	"fmt"
	"log"

	"rsr"
)

// Estimate a workload's IPC by cluster sampling with Reverse State
// Reconstruction warm-up.
func ExampleRunSampled() {
	w, err := rsr.WorkloadByName("twolf")
	if err != nil {
		log.Fatal(err)
	}
	res, err := rsr.RunSampled(w.Build(), rsr.DefaultMachine(),
		rsr.Regimen{ClusterSize: 1000, NumClusters: 10}, 200_000, 1,
		rsr.ReverseWarmup(20))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d clusters, estimate positive: %v, functional warm ops: %d\n",
		len(res.Clusters), res.IPCEstimate() > 0, res.Work.WarmOps)
	// Output: 10 clusters, estimate positive: true, functional warm ops: 0
}

// Compare a warm-up method's estimate against the full-simulation baseline.
func ExampleRunFull() {
	w, err := rsr.WorkloadByName("parser")
	if err != nil {
		log.Fatal(err)
	}
	full, err := rsr.RunFull(w.Build(), rsr.DefaultMachine(), 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d instructions, IPC in (0,4]: %v\n",
		full.Result.Instructions, full.Result.IPC() > 0 && full.Result.IPC() <= 4)
	// Output: simulated 100000 instructions, IPC in (0,4]: true
}

// Assemble a custom program from text and run it.
func ExampleParseAssembly() {
	p, err := rsr.ParseAssembly("triangle", `
		li   r1, 100
		li   r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
	spin:
		jmp  spin            # sampled runs need non-terminating programs
	`)
	if err != nil {
		log.Fatal(err)
	}
	full, err := rsr.RunFull(p, rsr.DefaultMachine(), 10_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d instructions\n", full.Result.Instructions)
	// Output: ran 10000 instructions
}

// The paper's Table 2 warm-up matrix.
func ExampleWarmupMatrix() {
	for _, s := range rsr.WarmupMatrix()[:4] {
		fmt.Println(s.Label())
	}
	// Output:
	// FP (20%)
	// FP (40%)
	// FP (80%)
	// None
}
