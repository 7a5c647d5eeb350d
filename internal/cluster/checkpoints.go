package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"log/slog"
	"net/http"
	"time"

	"rsr/internal/cas"
	"rsr/internal/funcsim"
	"rsr/internal/sampling"
)

// casCheckpoints is a sampling.CheckpointStore over a coordinator's
// content-addressed store: pre-pass checkpoint chains are gob-encoded, PUT
// as blobs, and bound to their checkpoint key in the CAS name index. Chains
// are a pure function of their key (see Job.CheckpointKey), so the binding
// is deterministic — nodes racing to publish the same key write identical
// blobs — and everything is best-effort: any miss, decode failure, or wire
// error degrades to recomputing the pre-pass locally.
type casCheckpoints struct {
	cl  *cas.Client
	log *slog.Logger
	// timeout bounds each load/store round trip; chains can be tens of MB.
	timeout time.Duration
}

// NewCASCheckpoints returns a checkpoint store backed by the coordinator at
// base (e.g. "http://host:9000"); hc may be nil for a default client. Wire
// it into engine.Options.Checkpoints so every sharded sampled run on this
// node shares pre-pass chains with the whole cluster.
func NewCASCheckpoints(base string, hc *http.Client, log *slog.Logger) sampling.CheckpointStore {
	if log == nil {
		log = slog.Default()
	}
	return &casCheckpoints{
		cl:      cas.NewClient(hc, base+"/v1/cas"),
		log:     log,
		timeout: 60 * time.Second,
	}
}

func (s *casCheckpoints) LoadCheckpoints(key string) []*funcsim.Delta {
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	b, err := s.cl.FetchKey(ctx, key)
	if err != nil {
		return nil
	}
	var chain []*funcsim.Delta
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&chain); err != nil {
		// The blob verified against its sum, so this is a version skew or a
		// writer bug, not corruption; recompute locally.
		s.log.Warn("checkpoint chain undecodable, recomputing", "key", key, "err", err)
		return nil
	}
	s.log.Debug("checkpoint chain fetched", "key", key, "shards", len(chain)+1)
	return chain
}

func (s *casCheckpoints) StoreCheckpoints(key string, chain []*funcsim.Delta) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(chain); err != nil {
		s.log.Warn("checkpoint chain unencodable", "key", key, "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	sum, err := s.cl.Put(ctx, buf.Bytes())
	if err != nil {
		s.log.Debug("checkpoint publish failed", "key", key, "err", err)
		return
	}
	if err := s.cl.Link(ctx, key, sum); err != nil {
		s.log.Debug("checkpoint link failed", "key", key, "err", err)
		return
	}
	s.log.Debug("checkpoint chain published", "key", key,
		"blob", sum, "bytes", buf.Len())
}
