package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckHeartbeatTimeout pins the floor rsrc enforces: three of the
// workers' one-second heartbeats. Anything shorter is refused with a message
// that names the floor.
func TestCheckHeartbeatTimeout(t *testing.T) {
	for _, tc := range []struct {
		timeout time.Duration
		ok      bool
	}{
		{0, false},
		{time.Second, false},
		{3*time.Second - time.Millisecond, false},
		{3 * time.Second, true},
		{5 * time.Second, true},
	} {
		err := checkHeartbeatTimeout(tc.timeout)
		if (err == nil) != tc.ok {
			t.Errorf("checkHeartbeatTimeout(%v) = %v, want ok %v", tc.timeout, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "floor of 3s") {
			t.Errorf("checkHeartbeatTimeout(%v) = %q, want the 3s floor named", tc.timeout, err)
		}
	}
}
