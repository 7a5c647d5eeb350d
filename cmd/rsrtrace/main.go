// Command rsrtrace inspects workloads: disassembles their static code,
// dumps a window of the committed dynamic stream, or summarizes stream
// statistics. It is the debugging companion to the simulation stack.
//
// Usage:
//
//	rsrtrace -workload mcf disasm            # static disassembly
//	rsrtrace -workload mcf -skip 1e6 -n 40 trace   # dynamic window
//	rsrtrace -workload mcf -n 2e6 stats      # stream statistics
//	rsrtrace -file prog.s -n 100 trace       # assemble and trace a .s file
//	rsrtrace -workload mcf -o mcf.txt disasm # write to a file instead of stdout
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"rsr/internal/asm"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/workload"
)

// out is where every command writes; -o redirects it from stdout to a file.
var out io.Writer = os.Stdout

func main() {
	name := flag.String("workload", "twolf", "workload name")
	file := flag.String("file", "", "assemble this .s file instead of a built-in workload")
	skip := flag.Float64("skip", 0, "instructions to skip before tracing")
	n := flag.Float64("n", 30, "instructions to trace / profile")
	outPath := flag.String("o", "", "write output to `file` instead of stdout")
	flag.Parse()

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsrtrace: -o:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		out = bw
		// The error paths exit via os.Exit, so flush explicitly after the
		// command instead of deferring.
		defer func() {
			if err := bw.Flush(); err == nil {
				err = f.Close()
				if err != nil {
					fmt.Fprintln(os.Stderr, "rsrtrace: -o:", err)
					os.Exit(1)
				}
			} else {
				f.Close()
				fmt.Fprintln(os.Stderr, "rsrtrace: -o:", err)
				os.Exit(1)
			}
		}()
	}

	var p *prog.Program
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsrtrace:", err)
			os.Exit(1)
		}
		p, err = asm.Parse(*file, string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsrtrace:", err)
			os.Exit(1)
		}
	} else {
		w, err := workload.ByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsrtrace:", err)
			os.Exit(1)
		}
		p = w.Build()
	}

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "stats"
	}
	switch cmd {
	case "disasm":
		disasm(p)
	case "trace":
		runTrace(p, uint64(*skip), uint64(*n))
	case "stats":
		runStats(p, uint64(*n))
	default:
		fmt.Fprintf(os.Stderr, "rsrtrace: unknown command %q (disasm, trace, stats)\n", cmd)
		os.Exit(1)
	}
}

func disasm(p *prog.Program) {
	fmt.Fprintf(out, "%s: %d static instructions, %d data words\n", p.Name, p.Len(), len(p.Data))
	for i, in := range p.Insts {
		fmt.Fprintf(out, "%#08x  %s\n", prog.PCOf(i), in)
	}
}

func runTrace(p *prog.Program, skip, n uint64) {
	fs := funcsim.New(p)
	if _, err := fs.Skip(skip); err != nil {
		fmt.Fprintln(os.Stderr, "rsrtrace:", err)
		os.Exit(1)
	}
	_, err := fs.Run(n, func(d *trace.DynInst) {
		extra := ""
		switch {
		case d.IsMem():
			extra = fmt.Sprintf("  [addr %#x]", d.EffAddr)
		case d.IsBranch() && d.Taken:
			extra = fmt.Sprintf("  -> %#x", d.NextPC)
		case d.IsBranch():
			extra = "  (not taken)"
		}
		in, _ := p.Fetch(d.PC)
		fmt.Fprintf(out, "%12d  %#08x  %-28s%s\n", d.Seq, d.PC, in.String(), extra)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsrtrace:", err)
		os.Exit(1)
	}
}

func runStats(p *prog.Program, n uint64) {
	fs := funcsim.New(p)
	var classes [16]uint64
	lines := map[uint64]struct{}{}
	pcs := map[uint64]struct{}{}
	var taken, cond uint64
	_, err := fs.Run(n, func(d *trace.DynInst) {
		classes[d.Op.Class()]++
		pcs[d.PC] = struct{}{}
		if d.IsMem() {
			lines[d.EffAddr>>6] = struct{}{}
		}
		if d.Op.IsConditional() {
			cond++
			if d.Taken {
				taken++
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsrtrace:", err)
		os.Exit(1)
	}
	names := map[isa.Class]string{
		isa.ClassNop: "nop", isa.ClassIntALU: "int-alu", isa.ClassIntMul: "int-mul",
		isa.ClassIntDiv: "int-div", isa.ClassFPALU: "fp-alu", isa.ClassFPMul: "fp-mul",
		isa.ClassFPDiv: "fp-div", isa.ClassLoad: "load", isa.ClassStore: "store",
		isa.ClassBranch: "branch", isa.ClassJump: "jump", isa.ClassCall: "call",
		isa.ClassReturn: "return", isa.ClassJumpIndirect: "jump-ind", isa.ClassHalt: "halt",
	}
	type row struct {
		name  string
		count uint64
	}
	var rows []row
	var total uint64
	for c, cnt := range classes {
		if cnt > 0 {
			rows = append(rows, row{names[isa.Class(c)], cnt})
			total += cnt
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Fprintf(out, "%s: %d instructions\n", p.Name, total)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %12d  %5.1f%%\n", r.name, r.count, 100*float64(r.count)/float64(total))
	}
	fmt.Fprintf(out, "code footprint  %d static instructions touched (%d bytes)\n",
		len(pcs), len(pcs)*isa.InstBytes)
	fmt.Fprintf(out, "data footprint  %d cache lines touched (%d KiB)\n", len(lines), len(lines)*64/1024)
	if cond > 0 {
		fmt.Fprintf(out, "branch bias     %.1f%% of conditionals taken\n", 100*float64(taken)/float64(cond))
	}
}
