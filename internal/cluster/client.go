package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rsr/internal/engine"
)

// Client submits jobs to a coordinator and waits for results, shaped like
// the engine's Submit/Wait so callers (the lab's Runner seam) cannot tell
// local from distributed execution. Backpressure is handled here: a 503 +
// Retry-After submission is retried until it lands or the context dies, so
// callers that submit a whole sweep up front just work. A coordinator
// restart is absorbed the same way: transient connection errors are retried
// with a capped growing delay, and a poll that comes back 404 — the
// coordinator came back without this job (it ran without a journal) —
// resubmits the kept job body. The job's content hash makes that
// idempotent: a resubmission coalesces onto the job if the coordinator has
// it, and otherwise the job runs again, byte-identically.
type Client struct {
	base string
	hc   *http.Client
	// sweep, when non-empty, is sent as X-Sweep-ID on every call so the
	// coordinator tags the whole submission as one traceable sweep.
	sweep string
	// pollEvery is the initial result-poll interval (grows 1.5x to a 1s
	// cap); tests shorten it.
	pollEvery time.Duration
}

// NewClient returns a client for the coordinator at base (e.g.
// "http://host:9000"); hc may be nil for a default 30s-timeout client.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: base, hc: hc, pollEvery: 50 * time.Millisecond}
}

// Handshake fetches the coordinator's version and fails fast on protocol
// skew.
func (c *Client) Handshake(ctx context.Context) (VersionInfo, error) {
	v, err := fetchVersion(ctx, c.hc, c.base)
	if err != nil {
		return v, fmt.Errorf("cluster: coordinator handshake: %w", err)
	}
	if v.Protocol != ProtocolVersion {
		return v, fmt.Errorf("%w: coordinator %d, this client %d",
			ErrProtocol, v.Protocol, ProtocolVersion)
	}
	return v, nil
}

// RemoteTicket is a handle to a submitted job, polled via Wait. It keeps the
// marshaled job so a post-restart 404 can be answered by an idempotent
// resubmission.
type RemoteTicket struct {
	c    *Client
	id   string
	body []byte
}

// Hash returns the job's content address.
func (t *RemoteTicket) Hash() string { return t.id }

// transientAttempts bounds how many consecutive transport failures the
// client absorbs — about 25s at the capped delay, comfortably past a
// coordinator restart — before concluding the coordinator is gone for good.
const transientAttempts = 15

// transientDelay is the capped growing delay between transport-error
// retries: 100ms doubling to a 2s ceiling.
func transientDelay(attempt int) time.Duration {
	d := 100 * time.Millisecond << uint(attempt-1)
	if d > 2*time.Second || d <= 0 {
		d = 2 * time.Second
	}
	return d
}

// Submit sends one job, absorbing backpressure and outages: a 503 response
// is retried after its Retry-After delay (capped at 2s), and transient
// connection errors — a coordinator restarting under the client — are
// retried with a capped growing delay, until accepted, the transient budget
// runs out, or ctx is done.
func (c *Client) Submit(ctx context.Context, job engine.Job) (*RemoteTicket, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	id, err := c.submitBody(ctx, body)
	if err != nil {
		return nil, err
	}
	return &RemoteTicket{c: c, id: id, body: body}, nil
}

// submitBody posts one marshaled job until it is accepted, shared by Submit
// and Wait's post-restart resubmission.
func (c *Client) submitBody(ctx context.Context, body []byte) (string, error) {
	fails := 0
	for {
		code, resp, header, err := c.post(ctx, "/v1/jobs", body)
		if err != nil {
			if fails++; fails >= transientAttempts {
				return "", fmt.Errorf("cluster: submit: coordinator unreachable after %d attempts: %w", fails, err)
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(transientDelay(fails)):
			}
			continue
		}
		fails = 0
		switch code {
		case http.StatusAccepted:
			var out struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &out); err != nil || out.ID == "" {
				return "", fmt.Errorf("cluster: bad submit response: %q", resp)
			}
			return out.ID, nil
		case http.StatusServiceUnavailable:
			delay := retryAfter(header, 2*time.Second)
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(delay):
			}
		default:
			return "", fmt.Errorf("cluster: submit refused: status %d: %s", code, errBody(resp))
		}
	}
}

// Wait polls the job until it finishes or ctx is done, returning the result
// exactly as an engine.Ticket would. Two recoveries keep a poll loop alive
// across a coordinator restart: transient connection errors are retried
// within the same budget as Submit, and a 404 — the coordinator came back
// without this job — resubmits the kept body and keeps polling (the job is
// content-addressed, so the resubmission either coalesces onto replayed
// state or re-runs to byte-identical results). A finished job's result must
// pass engine.Result.Verify.
func (t *RemoteTicket) Wait(ctx context.Context) (*engine.Result, error) {
	delay := t.c.pollEvery
	fails := 0
	for {
		st, code, err := t.c.status(ctx, t.id)
		switch {
		case err != nil && code == http.StatusNotFound:
			id, rerr := t.c.submitBody(ctx, t.body)
			if rerr != nil {
				return nil, fmt.Errorf("cluster: job %.12s lost by coordinator and resubmit failed: %w",
					t.id, rerr)
			}
			if id != t.id {
				return nil, fmt.Errorf("cluster: resubmission of job %.12s came back as %.12s",
					t.id, id)
			}
			fails = 0
		case err != nil && code == 0:
			if fails++; fails >= transientAttempts {
				return nil, fmt.Errorf("cluster: job %.12s: coordinator unreachable after %d attempts: %w",
					t.id, fails, err)
			}
		case err != nil:
			return nil, err
		default:
			fails = 0
			switch st.Status {
			case "done":
				if err := st.Result.Verify(t.id); err != nil {
					return nil, fmt.Errorf("cluster: job %.12s done: %w", t.id, err)
				}
				return st.Result, nil
			case "failed":
				return nil, fmt.Errorf("cluster: job %.12s failed: %s", t.id, st.Error)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		if delay = delay * 3 / 2; delay > time.Second {
			delay = time.Second
		}
	}
}

// status GETs one job's state, returning the HTTP status code alongside any
// error so Wait can tell a 404 (resubmit) from a transport failure (code 0,
// retry) from a hard refusal.
func (c *Client) status(ctx context.Context, id string) (JobStatus, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, 0, err
	}
	c.setSweep(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return JobStatus{}, 0, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, resp.StatusCode, fmt.Errorf("cluster: job %.12s: status %d: %s",
			id, resp.StatusCode, errBody(body))
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return JobStatus{}, resp.StatusCode, fmt.Errorf("cluster: job %.12s: decode: %w", id, err)
	}
	return st, resp.StatusCode, nil
}

// post sends a JSON body and returns status, body, and headers.
func (c *Client) post(ctx context.Context, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.setSweep(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	return resp.StatusCode, b, resp.Header, nil
}

func (c *Client) setSweep(req *http.Request) {
	if c.sweep != "" {
		req.Header.Set("X-Sweep-ID", c.sweep)
	}
}

// SetSweep sets the sweep trace tag sent as X-Sweep-ID on subsequent calls.
// Call it before submitting; the tag groups every job of the run into one
// coordinator-side sweep whose merged fabric trace FetchSweepTrace retrieves.
func (c *Client) SetSweep(sweep string) { c.sweep = sweep }

// Sweep returns the client's sweep trace tag, or "".
func (c *Client) Sweep() string { return c.sweep }

// FetchSweepTrace downloads the coordinator's merged fabric trace for the
// given sweep tag — one Chrome trace with a process lane per participating
// node, each span on its node's wall clock.
func (c *Client) FetchSweepTrace(ctx context.Context, sweep string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sweeps/"+sweep+"/trace", nil)
	if err != nil {
		return nil, err
	}
	c.setSweep(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: sweep trace %s: status %d: %s",
			sweep, resp.StatusCode, errBody(body))
	}
	return body, nil
}

// FetchStatus downloads the coordinator's live cluster status snapshot
// (GET /v1/status) — the payload behind `rsr top`.
func (c *Client) FetchStatus(ctx context.Context) (ClusterStatus, error) {
	var st ClusterStatus
	err := getJSON(ctx, c.hc, c.base+"/v1/status", 16<<20, &st)
	return st, err
}

// getJSON GETs url and decodes a 200 response's JSON body, read up to limit
// bytes, into v; any other status is an error carrying the response's
// message.
func getJSON(ctx context.Context, hc *http.Client, url string, limit int64, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, errBody(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

// retryAfter parses a Retry-After header in seconds, capped.
func retryAfter(h http.Header, max time.Duration) time.Duration {
	if h == nil {
		return 250 * time.Millisecond
	}
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 1 {
		return 250 * time.Millisecond
	}
	d := time.Duration(secs) * time.Second
	if d > max {
		d = max
	}
	return d
}

// errBody extracts the {"error": ...} message from an error response, or
// returns the raw body.
func errBody(b []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(b))
}
