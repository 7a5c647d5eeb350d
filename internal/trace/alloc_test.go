package trace

import "testing"

// TestSkipLogAppendZeroAllocsSteadyState pins the reverse method's per-record
// logging cost once a region log has grown to capacity: Reset retains
// storage, so subsequent regions of similar size append without allocating.
func TestSkipLogAppendZeroAllocsSteadyState(t *testing.T) {
	var l SkipLog
	const n = 2048
	fill := func() {
		l.Reset()
		for i := 0; i < n; i++ {
			l.Mem = append(l.Mem, MemRecord{Addr: uint64(i)})
			l.Branches = append(l.Branches, BranchRecord{PC: uint64(i)})
		}
	}
	fill()
	avg := testing.AllocsPerRun(50, fill)
	if avg != 0 {
		t.Fatalf("SkipLog appends allocate %.2f per region in steady state", avg)
	}
	if l.Len() != 2*n {
		t.Fatalf("log holds %d records, want %d", l.Len(), 2*n)
	}
}
