package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// TraceDump is one node's contribution to a fabric-wide trace: the spans it
// recorded for a sweep, with absolute unix-nano timestamps from Tracer.Dump.
type TraceDump struct {
	Node  string     `json:"node"`
	Spans []SpanDump `json:"spans"`
}

// WriteMergedChromeTrace renders dumps from several nodes as one Chrome
// trace: each node gets its own process lane (pid), named via process_name
// metadata, and every span keeps the timestamp its node's clock gave it.
// The time origin is the earliest span start, so ts values stay small
// enough for trace viewers.
func WriteMergedChromeTrace(w io.Writer, dumps []TraceDump) error {
	type ev struct {
		d   *SpanDump
		pid int
	}
	var evs []ev
	for i := range dumps {
		for j := range dumps[i].Spans {
			evs = append(evs, ev{d: &dumps[i].Spans[j], pid: i + 1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].d.Start < evs[j].d.Start })

	var origin int64
	if len(evs) > 0 {
		origin = evs[0].d.Start
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	for i := range dumps {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		writeProcessName(bw, i+1, dumps[i].Node)
	}
	for i := range evs {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		d := *evs[i].d
		d.Start -= origin
		writeTraceEvent(bw, d, evs[i].pid)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// writeProcessName emits the metadata event that labels a pid lane.
func writeProcessName(bw *bufio.Writer, pid int, name string) {
	bw.WriteString(`{"name":"process_name","ph":"M","pid":`)
	bw.WriteString(strconv.Itoa(pid))
	bw.WriteString(`,"args":{"name":`)
	writeJSONString(bw, name)
	bw.WriteString(`}}`)
}
