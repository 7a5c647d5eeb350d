package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rsr/internal/obs"
)

// federateMaxAge bounds how stale the federated per-node section of the
// coordinator's /metrics may be: scrapes inside the window reuse the cached
// fan-out instead of hammering every worker.
const federateMaxAge = 2 * time.Second

// federatePrefixes is the allowlist of family-name prefixes re-exported per
// node. Worker-local process detail (pprof-ish families, if any appear
// later) stays on the worker's own endpoint.
var federatePrefixes = []string{"rsr_engine_", "rsr_peer_", "rsr_sampling_"}

// Federator pulls live workers' metric snapshots (GET /v1/metricsnap) and
// re-exports their key families on the coordinator's /metrics with a `node`
// label, so one scrape of the coordinator sees the whole fabric. Results
// are cached for federateMaxAge; a node that fails to answer within the
// timeout is skipped (its families simply go absent, like any down target).
type Federator struct {
	co  *Coordinator
	hc  *http.Client
	log *slog.Logger

	mu        sync.Mutex
	cached    []byte
	fetchedAt time.Time
}

// NewFederator builds a federator over the coordinator's live-node view.
func NewFederator(co *Coordinator, log *slog.Logger) *Federator {
	if log == nil {
		log = slog.Default()
	}
	return &Federator{
		co:  co,
		hc:  &http.Client{Timeout: 1500 * time.Millisecond},
		log: log,
	}
}

// Write appends the federated per-node exposition to w, refreshing the
// fan-out if the cache is older than federateMaxAge.
func (f *Federator) Write(w io.Writer) error {
	f.mu.Lock()
	if time.Since(f.fetchedAt) > federateMaxAge {
		f.cached = f.fetch()
		f.fetchedAt = time.Now()
	}
	b := f.cached
	f.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// fetch performs one fan-out over the live nodes and renders the federated
// section. Same-named families from different nodes are merged into one
// family (their series distinguished by the `node` label), so the combined
// exposition never repeats a TYPE header. The HTTP round-trips run without
// coordinator locks (LiveNodes snapshots and releases).
func (f *Federator) fetch() []byte {
	nodes := f.co.LiveNodes()
	names := make([]string, 0, len(nodes))
	for name, addr := range nodes {
		if addr != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	byName := make(map[string]*obs.MetricSnapshot)
	var order []string
	for _, name := range names {
		// The fan-out is cached and shared between scrapes, so it is not tied
		// to one request's context; the client's timeout bounds it.
		var snaps []obs.MetricSnapshot
		err := getJSON(context.Background(), f.hc, nodes[name]+"/v1/metricsnap", 16<<20, &snaps)
		if err != nil {
			f.log.Warn("metrics federation pull failed", "node", name, "err", err)
			continue
		}
		for _, m := range snaps {
			if !federated(m.Name) {
				continue
			}
			merged := byName[m.Name]
			if merged == nil {
				merged = &obs.MetricSnapshot{Name: m.Name, Type: m.Type}
				byName[m.Name] = merged
				order = append(order, m.Name)
			}
			for _, s := range m.Series {
				labels := map[string]string{"node": name}
				for k, v := range s.Labels {
					labels[k] = v
				}
				s.Labels = labels
				merged.Series = append(merged.Series, s)
			}
		}
	}
	sort.Strings(order)

	var buf bytes.Buffer
	for _, fam := range order {
		if err := obs.WriteSnapshotPrometheus(&buf, []obs.MetricSnapshot{*byName[fam]}, "", ""); err != nil {
			break
		}
	}
	return buf.Bytes()
}

// federated reports whether a family name is in the re-export allowlist.
func federated(name string) bool {
	for _, p := range federatePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
