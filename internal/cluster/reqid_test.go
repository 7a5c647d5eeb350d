package cluster

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rsr/internal/engine"
)

func TestWithRequestLogEchoAndContext(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))

	var gotReq, gotSweep string
	h := WithRequestLog(log, NewRequestIDs(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotReq = engine.RequestIDFrom(r.Context())
		gotSweep = engine.SweepFrom(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}))

	r := httptest.NewRequest("POST", "/v1/jobs", nil)
	r.Header.Set("X-Request-ID", "client-id-1")
	r.Header.Set("X-Sweep-ID", "sweep-42")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)

	if got := w.Header().Get("X-Request-ID"); got != "client-id-1" {
		t.Errorf("X-Request-ID echo = %q, want client-id-1", got)
	}
	if gotReq != "client-id-1" {
		t.Errorf("RequestIDFrom = %q, want client-id-1", gotReq)
	}
	if gotSweep != "sweep-42" {
		t.Errorf("SweepFrom = %q, want sweep-42", gotSweep)
	}

	line := buf.String()
	if n := strings.Count(line, "msg=request"); n != 1 {
		t.Errorf("want exactly one request log line, got %d:\n%s", n, line)
	}
	for _, frag := range []string{"id=client-id-1", "status=418", "sweep=sweep-42", "path=/v1/jobs"} {
		if !strings.Contains(line, frag) {
			t.Errorf("log line missing %q:\n%s", frag, line)
		}
	}
}

func TestWithRequestLogMintsIDAndOmitsSweep(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	h := WithRequestLog(log, NewRequestIDs(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if engine.RequestIDFrom(r.Context()) == "" {
			t.Error("no request ID minted")
		}
		if engine.SweepFrom(r.Context()) != "" {
			t.Error("sweep ID appeared from nowhere")
		}
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Header().Get("X-Request-ID") == "" {
		t.Error("response missing minted X-Request-ID")
	}
	if strings.Contains(buf.String(), "sweep=") {
		t.Errorf("log line carries a sweep attr for a sweepless request:\n%s", buf.String())
	}
}
