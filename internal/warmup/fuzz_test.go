package warmup

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// windowCase is one decoded fuzz input: two back-to-back regions of n
// instructions each, cut out of the generator's stream at off, observed by a
// reverse method with a percent window. chunks are the batch sizes the
// production arms split a region into; past the last one a region is fed in
// controller-sized batches.
type windowCase struct {
	n, off int
	spec   Spec
	seal   bool
	chunks []int
}

// decodeWindowCase maps arbitrary bytes onto a valid case:
//
//	[0:2] region length, 1..4096   [2] percent, 0..100   [3:5] stream offset
//	[5]   bit 0 drops the caches, bit 1 the predictor (both: neither), bit 2 leaves captures unsealed
//	[6:]  batch sizes, 1 + 4·b each
func decodeWindowCase(data []byte, stream int) windowCase {
	var hdr [6]byte
	copy(hdr[:], data)
	c := windowCase{
		n:    1 + int(binary.LittleEndian.Uint16(hdr[0:2]))%4096,
		seal: hdr[5]&4 == 0,
	}
	c.off = int(binary.LittleEndian.Uint16(hdr[3:5])) % (stream - 2*c.n + 1)
	cache, bp := hdr[5]&1 == 0, hdr[5]&2 == 0
	if !cache && !bp {
		cache, bp = true, true
	}
	c.spec = Spec{Kind: KindReverse, Percent: int(hdr[2]) % 101, Cache: cache, BPred: bp}
	if len(data) > len(hdr) {
		for _, b := range data[len(hdr):] {
			c.chunks = append(c.chunks, 1+4*int(b))
		}
	}
	return c
}

// split feeds ds to observe in the case's batch sizes.
func (c windowCase) split(ds []trace.DynInst, observe func([]trace.DynInst)) {
	for i := 0; len(ds) > 0; i++ {
		k := funcsim.BatchSize
		if i < len(c.chunks) {
			k = c.chunks[i]
		}
		k = min(k, len(ds))
		observe(ds[:k])
		ds = ds[k:]
	}
}

// FuzzReverseWindowMatchesOracle drives the production reverse method over
// generated (region length, percent, batch split) triples on both ingestion
// paths — observed in place, and through capture, seal and adopt — against the
// per-instruction oracle, which logs an instruction once the count seen exceeds
// n − n·percent/100 and scans everything it logged. After each of two regions
// the predictor is probed as a hot window would; at the end the hierarchy, the
// predictor and the work counters must be equal. The second region recycles
// what the first allocated: the detached log, the capture behind cur.
func FuzzReverseWindowMatchesOracle(f *testing.F) {
	recs := genRecords(f, 2*4096)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeWindowCase(data, len(recs))
		type machine struct {
			m  *reverse
			h  *mem.Hierarchy
			u  *bpred.Unit
			st machineState
		}
		var oracle, inPlace, captured machine
		all := []*machine{&oracle, &inPlace, &captured}
		for _, x := range all {
			x.h, x.u = testEnv()
			x.m = c.spec.New(x.h, x.u).(*reverse)
			x.m.SizeRegions(uint64(c.n))
		}
		for region := 0; region < 2; region++ {
			ds := recs[c.off+region*c.n:][:c.n]

			observeScalarRegion(oracle.m, ds)
			if got, want := oracle.m.cur.threshold, uint64(c.n-c.n*c.spec.Percent/100); got != want {
				t.Fatalf("%d instructions at %d%%: the window opens after %d, want %d", c.n, c.spec.Percent, got, want)
			}
			inPlace.m.BeginSkip(uint64(c.n))
			c.split(ds, inPlace.m.ObserveSkipBatch)
			if lo, lp := oracle.m.cur.log, inPlace.m.cur.log; !slices.Equal(lo.Mem, lp.Mem) || !slices.Equal(lo.Branches, lp.Branches) {
				t.Fatalf("%+v region %d: logged in place %d memory and %d branch records, the oracle %d and %d (or as many, but different)",
					c, region, len(lp.Mem), len(lp.Branches), len(lo.Mem), len(lo.Branches))
			}
			oracle.m.EndSkip()
			inPlace.m.EndSkip()

			rc := captured.m.NewRegionCapture(region, uint64(c.n))
			c.split(ds, rc.ObserveSkipBatch)
			if c.seal {
				rc.Seal()
			}
			captured.m.BeginSkip(uint64(c.n))
			captured.m.AdoptRegion(rc)
			captured.m.EndSkip()

			pcs, classes := probePCs(ds, 16)
			for _, x := range all {
				for i, pc := range pcs {
					x.st.probes = append(x.st.probes, x.m.Predictor().Predict(pc, classes[i]))
				}
			}
		}
		for _, x := range all {
			x.st.work, x.st.hier, x.st.pred = x.m.Work(), x.h.State(), x.u.State()
		}
		for i, name := range []string{"in place", "captured"} {
			if got, want := all[i+1].st, oracle.st; !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, %s: work %+v (oracle %+v); hierarchy equal %v, predictor equal %v, probes equal %v",
					c, name, got.work, want.work, reflect.DeepEqual(got.hier, want.hier),
					reflect.DeepEqual(got.pred, want.pred), reflect.DeepEqual(got.probes, want.probes))
			}
		}
	})
}
