package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
)

// TestVersionEndpoint pins the mixed-version guard: /v1/version reports the
// cluster protocol version so peers and operators can spot skew before it
// corrupts a sweep.
func TestVersionEndpoint(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, nil, nil, testLogger(), time.Second).routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var v cluster.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Protocol != cluster.ProtocolVersion {
		t.Fatalf("protocol = %d, want %d", v.Protocol, cluster.ProtocolVersion)
	}
	if v.GoVersion == "" || v.Module == "" {
		t.Fatalf("missing build info: %+v", v)
	}
}
