package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"rsr/internal/engine"
)

// RequestIDs issues process-unique request IDs: a random boot prefix plus a
// counter, so IDs stay grep-able across log shipping without coordination.
// Shared by rsrd and rsrc so every hop in a distributed sweep mints IDs from
// the same scheme.
type RequestIDs struct {
	boot string
	n    atomic.Uint64
}

// NewRequestIDs seeds an issuer with a random boot prefix.
func NewRequestIDs() *RequestIDs {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed prefix; IDs remain unique within the process.
		return &RequestIDs{boot: "rsr00000"}
	}
	return &RequestIDs{boot: hex.EncodeToString(b[:])}
}

// Next returns a fresh ID.
func (r *RequestIDs) Next() string {
	return fmt.Sprintf("%s-%06d", r.boot, r.n.Add(1))
}

// statusWriter captures the response status for the request log. It forwards
// Flush so ndjson event streams keep flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// WithRequestLog wraps next so every request gets an ID (a client-supplied
// X-Request-ID is honoured, otherwise one is issued), the ID is echoed on the
// response and stashed in the request context with engine.WithRequestID, and
// exactly one structured line is logged on completion. The stashed ID is what
// lets handlers propagate the caller's correlation ID across node hops — into
// engine submissions on a worker (which read the same context keys), or onto
// coordinator work items (engine.RequestIDFrom). A sweep ID arriving as
// X-Sweep-ID rides along the same way (engine.WithSweep / engine.SweepFrom)
// and appears in the log line when present.
func WithRequestLog(log *slog.Logger, ids *RequestIDs, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = ids.Next()
		}
		w.Header().Set("X-Request-ID", id)
		sweep := r.Header.Get("X-Sweep-ID")
		r = r.WithContext(engine.WithSweep(engine.WithRequestID(r.Context(), id), sweep))
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		attrs := []any{
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", time.Since(begin).Round(time.Microsecond),
			"remote", r.RemoteAddr,
		}
		if sweep != "" {
			attrs = append(attrs, "sweep", sweep)
		}
		log.Info("request", attrs...)
	})
}
