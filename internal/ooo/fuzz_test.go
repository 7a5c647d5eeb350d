package ooo

import (
	"math/rand"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// randomStream builds an arbitrary but self-consistent committed stream: PCs
// chain through NextPC, branches carry plausible targets, memory ops carry
// addresses. The timing model must retire every instruction for any such
// stream — no deadlocks, no lost instructions — under any configuration.
func randomStream(rng *rand.Rand, n int) []trace.DynInst {
	out := make([]trace.DynInst, n)
	pc := prog.CodeBase
	for i := 0; i < n; i++ {
		d := trace.DynInst{Seq: uint64(i), PC: pc}
		switch k := rng.Intn(20); {
		case k < 8:
			d.Op = isa.OpAdd
			d.Rd = uint8(rng.Intn(32))
			d.Rs1 = uint8(rng.Intn(32))
			d.Rs2 = uint8(rng.Intn(32))
		case k < 10:
			d.Op = isa.OpMul
			d.Rd = uint8(1 + rng.Intn(31))
			d.Rs1 = uint8(rng.Intn(32))
		case k < 11:
			d.Op = isa.OpDiv
			d.Rd = uint8(1 + rng.Intn(31))
		case k < 14:
			d.Op = isa.OpLd
			d.Rd = uint8(1 + rng.Intn(31))
			d.EffAddr = uint64(rng.Intn(1 << 22))
		case k < 16:
			d.Op = isa.OpSt
			d.EffAddr = uint64(rng.Intn(1 << 22))
		case k < 18:
			d.Op = isa.OpBne
			d.Taken = rng.Intn(2) == 0
		case k < 19:
			d.Op = isa.OpCall
			d.Rd = 31
			d.Taken = true
		default:
			d.Op = isa.OpRet
			d.Rs1 = 31
			d.Taken = true
		}
		next := pc + isa.InstBytes
		if d.Taken {
			next = prog.CodeBase + uint64(rng.Intn(4096))*isa.InstBytes
		}
		d.NextPC = next
		out[i] = d
		pc = next
	}
	return out
}

// randomCase draws a shrunk configuration — structures small enough to
// provoke every stall, BranchPenalty and FrontEndDelay down to 0 — and a
// random stream of 200 to 3,199 instructions for it.
func randomCase(rng *rand.Rand) (Config, []trace.DynInst) {
	cfg := DefaultConfig()
	cfg.ROBSize = 2 + rng.Intn(63)
	cfg.IQSize = 1 + rng.Intn(cfg.ROBSize)
	cfg.LSQSize = 1 + rng.Intn(cfg.ROBSize)
	cfg.FetchWidth = 1 + rng.Intn(8)
	cfg.DispatchWidth = 1 + rng.Intn(8)
	cfg.IssueWidth = 1 + rng.Intn(4)
	cfg.RetireWidth = 1 + rng.Intn(4)
	cfg.MaxBranches = 1 + rng.Intn(8)
	cfg.FetchQueueSize = 1 + rng.Intn(16)
	cfg.BranchPenalty = uint64(rng.Intn(20))
	cfg.FrontEndDelay = uint64(rng.Intn(6))
	return cfg, randomStream(rng, 200+rng.Intn(3000))
}

func TestFuzzRandomStreamsAlwaysRetire(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		cfg, stream := randomCase(rng)
		n := len(stream)
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		u := bpred.NewUnit(bpred.DefaultConfig())
		sim := New(cfg, h, u)

		i := 0
		r := sim.Simulate(uint64(n), func() (trace.DynInst, bool) {
			if i >= len(stream) {
				return trace.DynInst{}, false
			}
			d := stream[i]
			i++
			return d, true
		})
		if r.Instructions != uint64(n) {
			t.Fatalf("trial %d cfg %+v: retired %d of %d", trial, cfg, r.Instructions, n)
		}
		if r.Cycles == 0 {
			t.Fatalf("trial %d: zero cycles for %d instructions", trial, n)
		}
		// Throughput sanity: cannot retire more than RetireWidth per cycle.
		if r.Instructions > r.Cycles*uint64(cfg.RetireWidth) {
			t.Fatalf("trial %d: IPC %f exceeds retire width %d",
				trial, r.IPC(), cfg.RetireWidth)
		}
	}
}

func TestFuzzDeterministicUnderRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := randomStream(rng, 5000)
	run := func() Result {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		u := bpred.NewUnit(bpred.DefaultConfig())
		i := 0
		return New(DefaultConfig(), h, u).Simulate(uint64(len(stream)), func() (trace.DynInst, bool) {
			if i >= len(stream) {
				return trace.DynInst{}, false
			}
			d := stream[i]
			i++
			return d, true
		})
	}
	if run() != run() {
		t.Fatal("identical fuzz streams produced different results")
	}
}
