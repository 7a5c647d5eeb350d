package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Machine-readable output for downstream analysis (plotting the figures,
// regression tracking). JSON marshals the result structs as-is; CSV flattens
// them with stable headers.

// WriteJSON writes any experiment result as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteCellsCSV flattens cells to CSV: every cell table — the figures and the
// frontier, the appendix, Figure 9 and the head-to-head — shares one header.
func WriteCellsCSV(w io.Writer, cells []Cell) error {
	cw := csv.NewWriter(w)
	header := []string{
		"workload", "method", "true_ipc", "estimate", "rel_err", "confident",
		"elapsed_ns", "warm_ops", "logged_records", "recon_scanned", "recon_applied",
		"hot_instructions", "func_instructions",
		"strategy", "ci_rel", "regions", "profile_instructions", "selection_ns", "added_err_pct",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range cells {
		rec := []string{
			c.Workload, c.Method,
			fmtF(c.TrueIPC), fmtF(c.Estimate), fmtF(c.RelErr),
			strconv.FormatBool(c.Confident),
			strconv.FormatInt(c.Elapsed.Nanoseconds(), 10),
			strconv.FormatUint(c.Work.WarmOps, 10),
			strconv.FormatUint(c.Work.LoggedRecords, 10),
			strconv.FormatUint(c.Work.ReconScanned, 10),
			strconv.FormatUint(c.Work.ReconApplied, 10),
			strconv.FormatUint(c.HotInstructions, 10),
			strconv.FormatUint(c.FuncInstructions, 10),
			c.Strategy, fmtF(c.CIRel),
			strconv.Itoa(c.Regions),
			strconv.FormatUint(c.ProfileInstructions, 10),
			strconv.FormatInt(c.Selection.Nanoseconds(), 10), "",
		}
		if c.AddedErrPct != nil { // an unpaired cell leaves the column empty
			rec[len(rec)-1] = fmtF(*c.AddedErrPct)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable1CSV flattens Table 1 rows to CSV.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "true_ipc", "instructions", "clusters", "cluster_size", "full_elapsed_ns"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Workload, fmtF(r.TrueIPC),
			strconv.FormatUint(r.Total, 10),
			strconv.Itoa(r.NumClusters),
			strconv.FormatUint(r.ClusterSize, 10),
			strconv.FormatInt(r.FullElapsed.Nanoseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return fmt.Sprintf("%.6f", v) }
