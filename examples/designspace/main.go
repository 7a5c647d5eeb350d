// Designspace explores out-of-order core configurations with sampled
// simulation. Warm-up touches only the caches and the predictor, so the core
// can vary freely under one warm-up method; each candidate is measured under
// the paper's Reverse State Reconstruction, R$BP (20%), and under SMARTS
// full-functional warming, S$BP, and the sweep's total time is reported per
// method.
package main

import (
	"fmt"
	"log"
	"time"

	"rsr"
)

func main() {
	w, err := rsr.WorkloadByName("gcc")
	if err != nil {
		log.Fatal(err)
	}
	p := w.Build()
	machine := rsr.DefaultMachine()
	const total = 5_000_000
	reg := rsr.Regimen{ClusterSize: 2000, NumClusters: 40}
	methods := []rsr.WarmupSpec{rsr.ReverseWarmup(20), rsr.SMARTSWarmup()}

	configs := []struct {
		label string
		mod   func(c *rsr.CoreConfig)
	}{
		{"baseline (4-issue, ROB 64)", func(c *rsr.CoreConfig) {}},
		{"2-issue", func(c *rsr.CoreConfig) { c.IssueWidth = 2; c.RetireWidth = 2 }},
		{"1-issue", func(c *rsr.CoreConfig) { c.IssueWidth = 1; c.RetireWidth = 1 }},
		{"ROB 32 / IQ 16", func(c *rsr.CoreConfig) { c.ROBSize = 32; c.IQSize = 16 }},
		{"ROB 128 / IQ 64", func(c *rsr.CoreConfig) { c.ROBSize = 128; c.IQSize = 64 }},
		{"branch penalty 15", func(c *rsr.CoreConfig) { c.BranchPenalty = 15 }},
		{"2 checkpoints", func(c *rsr.CoreConfig) { c.MaxBranches = 2 }},
	}

	fmt.Printf("%-28s", "configuration")
	for _, spec := range methods {
		fmt.Printf(" %12s", spec.Label())
	}
	fmt.Println()
	elapsed := make([]time.Duration, len(methods))
	for _, cfg := range configs {
		m := machine
		cfg.mod(&m.CPU)
		fmt.Printf("%-28s", cfg.label)
		for i, spec := range methods {
			res, err := rsr.RunSampled(p, m, reg, total, 1, spec)
			if err != nil {
				log.Fatal(err)
			}
			elapsed[i] += res.Elapsed
			fmt.Printf(" %12.4f", res.IPCEstimate())
		}
		fmt.Println()
	}

	fmt.Println()
	for i, spec := range methods {
		fmt.Printf("%-12s %d configurations in %v\n", spec.Label(), len(configs), elapsed[i].Round(time.Millisecond))
	}
}
