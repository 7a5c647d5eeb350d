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
// Shared by rsrd and rsrc, and by rsr, which names its sweep tag rsr-<id>.
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

// statusWriter captures the response status for the request log.
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

// validTag reports whether s may serve as a request ID or sweep tag: 1-128
// bytes of [A-Za-z0-9._:-]. Such an ID needs no escaping in a URL path or
// query, and its size is bounded in the journal, the snapshot and every span
// it tags.
func validTag(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '.' || c == '_' || c == ':' || c == '-') {
			return false
		}
	}
	return true
}

// WithRequestLog wraps next so every request gets an ID (a valid
// client-supplied X-Request-ID is honoured, otherwise one is issued), the ID
// is echoed on the response, and exactly one structured line is logged on
// completion. A sweep tag arriving as X-Sweep-ID is stashed in the request
// context (engine.WithSweep), where handlers read it to tag submissions, and
// appears in the log line; one that fails validTag is refused with 400.
func WithRequestLog(log *slog.Logger, ids *RequestIDs, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !validTag(id) {
			id = ids.Next()
		}
		w.Header().Set("X-Request-ID", id)
		sweep := r.Header.Get("X-Sweep-ID")
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		if sweep == "" || validTag(sweep) {
			r = r.WithContext(engine.WithSweep(r.Context(), sweep))
			next.ServeHTTP(sw, r)
		} else {
			HTTPError(sw, http.StatusBadRequest, "bad X-Sweep-ID: want 1-128 bytes of [A-Za-z0-9._:-]")
			sweep = ""
		}
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
