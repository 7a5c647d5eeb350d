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

	var gotSweep string
	h := WithRequestLog(log, NewRequestIDs(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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

// TestWithRequestLogValidatesIDs pins the ID rule (1-128 bytes of
// [A-Za-z0-9._:-]): an invalid X-Sweep-ID is refused with 400 before any
// handler sees it, and an invalid X-Request-ID is replaced by a minted one.
func TestWithRequestLogValidatesIDs(t *testing.T) {
	long := strings.Repeat("a", 128)
	cases := []struct {
		name, reqID, sweep string
		wantStatus         int
		wantReqID          bool // the client's X-Request-ID is kept
	}{
		{"rsr minted tag", "", "rsr-" + NewRequestIDs().Next(), http.StatusOK, false},
		{"128-byte tag", long, long, http.StatusOK, true},
		{"over-long tag", "r1", long + "a", http.StatusBadRequest, true},
		{"trace suffix", "r1", "a/trace", http.StatusBadRequest, true},
		{"query char", "r1", "a?b", http.StatusBadRequest, true},
		{"escape char", "r1", "a%2F", http.StatusBadRequest, true},
		{"over-long request ID", long + "a", "s1", http.StatusOK, false},
		{"request ID with space", "a b", "s1", http.StatusOK, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reached bool
			var gotSweep string
			h := WithRequestLog(testLogger(), NewRequestIDs(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				reached = true
				gotSweep = engine.SweepFrom(r.Context())
			}))
			r := httptest.NewRequest("POST", "/v1/jobs", nil)
			r.Header.Set("X-Request-ID", tc.reqID)
			r.Header.Set("X-Sweep-ID", tc.sweep)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)

			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", w.Code, tc.wantStatus)
			}
			echo := w.Header().Get("X-Request-ID")
			if (echo == tc.reqID) != tc.wantReqID || echo == "" {
				t.Errorf("X-Request-ID echo = %q for client %q, keep = %v", echo, tc.reqID, tc.wantReqID)
			}
			if tc.wantStatus != http.StatusOK {
				if reached {
					t.Error("handler reached despite an invalid X-Sweep-ID")
				}
				return
			}
			if gotSweep != tc.sweep {
				t.Errorf("context sweep %q, want %q", gotSweep, tc.sweep)
			}
		})
	}
}

func TestWithRequestLogMintsIDAndOmitsSweep(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	h := WithRequestLog(log, NewRequestIDs(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
