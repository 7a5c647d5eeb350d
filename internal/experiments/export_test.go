package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsr/internal/warmup"
)

func sampleCells() []Cell {
	return []Cell{
		{Workload: "twolf", Method: "None", TrueIPC: 1.1, Estimate: 0.8, RelErr: 0.27,
			Confident: false, Elapsed: 3 * time.Second, HotInstructions: 100000},
		{Workload: "twolf", Method: "S$BP", TrueIPC: 1.1, Estimate: 1.09, RelErr: 0.009,
			Confident: true, Elapsed: 4 * time.Second, HotInstructions: 100000},
	}
}

const cellsCSVHeader = "workload,method,true_ipc,estimate,rel_err,confident,elapsed_ns,warm_ops,logged_records," +
	"recon_scanned,recon_applied,hot_instructions,func_instructions," +
	"strategy,ci_rel,regions,profile_instructions,selection_ns,added_err_pct"

// checkCellsCSV writes cells with WriteCellsCSV and checks the shared header,
// one record per cell, and the {column, value} pairs want holds for each row.
func checkCellsCSV(t *testing.T, name string, cells []Cell, want [][]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(recs[0], ","); got != cellsCSVHeader {
		t.Fatalf("%s: header\n%s\nwant\n%s", name, got, cellsCSVHeader)
	}
	if len(recs) != len(cells)+1 {
		t.Fatalf("%s: records = %d", name, len(recs))
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	for r, pairs := range want {
		for k := 0; k < len(pairs); k += 2 {
			if got := recs[r+1][col[pairs[k]]]; got != pairs[k+1] {
				t.Errorf("%s row %d: %s = %q, want %q", name, r, pairs[k], got, pairs[k+1])
			}
		}
	}
}

// TestWriteCellsCSV: the figures' and the head-to-head's cells flatten under
// one header, with the interval width on every row and the strategy columns
// blank or zero where a cell has none.
func TestWriteCellsCSV(t *testing.T) {
	strategies := []Cell{
		{Workload: "twolf", Method: "R$BP (20%)", Strategy: "ranked-set", TrueIPC: 1.1, Estimate: 1.0,
			RelErr: 0.09, CIRel: 0.031, Confident: true, Regions: 50, ProfileInstructions: 991611},
	}
	checkCellsCSV(t, "figure", sampleCells(), [][]string{
		{"method", "None", "confident", "false", "strategy", "", "ci_rel", "0.000000", "added_err_pct", ""},
		{"method", "S$BP", "confident", "true", "elapsed_ns", "4000000000"},
	})
	paired := sampleCells()
	added, zero := 24.5, 0.0
	paired[0].AddedErrPct, paired[1].AddedErrPct = &added, &zero
	checkCellsCSV(t, "paired", paired, [][]string{
		{"method", "None", "added_err_pct", "24.500000"},
		{"method", "S$BP", "added_err_pct", "0.000000"},
	})
	checkCellsCSV(t, "strategies", strategies, [][]string{
		{"strategy", "ranked-set", "ci_rel", "0.031000", "confident", "true", "regions", "50",
			"profile_instructions", "991611"},
	})
}

// TestWriteFigure9CSV: Figure 9's SimPoint cells and its R$BP reference cell
// go out under the same header as every other figure, the SimPoint row with
// its selection time and point count, the reference row after it.
func TestWriteFigure9CSV(t *testing.T) {
	figure9 := []Cell{
		{Workload: "gcc", Method: "50K", Strategy: "simpoint", TrueIPC: 0.67, Estimate: 0.64, RelErr: 0.04,
			Elapsed: 3 * time.Second, Selection: 2 * time.Second, HotInstructions: 1500000, Regions: 30},
		{Workload: "gcc", Method: "R$BP (20%)", TrueIPC: 0.67, Estimate: 0.66, RelErr: 0.015, CIRel: 0.02, Regions: 50},
	}
	checkCellsCSV(t, "figure9", figure9, [][]string{
		{"method", "50K", "strategy", "simpoint", "elapsed_ns", "3000000000", "selection_ns", "2000000000",
			"hot_instructions", "1500000", "regions", "30"},
		{"method", "R$BP (20%)", "strategy", "", "ci_rel", "0.020000", "regions", "50", "selection_ns", "0"},
	})
}

// TestAverageBy: groups keep first-appearance order and every mean is over
// its own group's cells; the added error over its paired cells only, and
// a group with none stays unpaired.
func TestAverageBy(t *testing.T) {
	added := 1.5
	cells := []Cell{
		{Method: "R$BP (20%)", Strategy: "two-phase-stratified", RelErr: 0.01, CIRel: 0.02, Confident: true,
			Elapsed: 3 * time.Second, Selection: time.Second, HotInstructions: 100, ProfileInstructions: 1000,
			Work: warmup.Work{ReconScanned: 10, ReconApplied: 4}, AddedErrPct: &added},
		{Method: "R$BP (20%)", Strategy: "ranked-set", RelErr: 0.05, Elapsed: time.Second},
		{Method: "R$BP (20%)", Strategy: "two-phase-stratified", RelErr: 0.03, CIRel: 0.04,
			Elapsed: 5 * time.Second, Selection: 3 * time.Second, HotInstructions: 300, ProfileInstructions: 3000,
			Work: warmup.Work{WarmOps: 8, ReconScanned: 2}},
	}
	got := averageBy(cells, byStrategy)
	want := []MethodAverage{
		{Method: "two-phase-stratified", MeanRelErr: (0.01 + 0.03) / 2, MeanCIRel: (0.02 + 0.04) / 2, ConfidentShare: 0.5,
			MeanTime: 4 * time.Second, MeanSelection: 2 * time.Second, MeanWarmOps: 4, MeanReconOps: 8,
			MeanHotInstr: 200, MeanProfileInstr: 2000, MeanAddedErrPct: &added},
		{Method: "ranked-set", MeanRelErr: 0.05, MeanTime: time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("averageBy(byStrategy) =\n%+v\nwant\n%+v", got, want)
	}
	if got := averageBy(cells, byMethod); len(got) != 1 || got[0].MeanTime != 3*time.Second {
		t.Fatalf("averageBy(byMethod) = %+v", got)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleCells()); err != nil {
		t.Fatal(err)
	}
	var back []Cell
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Method != "None" || back[1].Estimate != 1.09 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteTable1CSV(t *testing.T) {
	rows := []Table1Row{{Workload: "mcf", TrueIPC: 0.06, Total: 20000000, NumClusters: 30, ClusterSize: 8000}}
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "8000") {
		t.Fatalf("csv = %q", out)
	}
}
