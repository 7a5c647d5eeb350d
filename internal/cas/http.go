package cas

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxBlobBytes bounds a single blob accepted over HTTP. Results are a few
// KB, so the ceiling is generous without being unbounded.
const maxBlobBytes = 1 << 30

// Server exposes a Store over HTTP under a mount prefix:
//
//	GET  <prefix>/blobs/{sum}  the blob (404 unknown or quarantined)
//	HEAD <prefix>/blobs/{sum}  existence probe
//	PUT  <prefix>/blobs/{sum}  store a blob; the body must hash to {sum}
//	GET  <prefix>/index/{key}  the blob sum bound to a semantic key
//	PUT  <prefix>/index/{key}  bind key to the sum in the body
//
// Every served blob was verified against its key on the way out of the
// store, and every accepted blob is verified against the claimed sum on the
// way in, so a corrupt peer (or wire) can never poison the store.
type Server struct {
	store  *Store
	prefix string
}

// NewServer wraps store for mounting at prefix (e.g. "/v1/cas").
func NewServer(store *Store, prefix string) *Server {
	return &Server{store: store, prefix: strings.TrimSuffix(prefix, "/")}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, s.prefix+"/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch {
	case strings.HasPrefix(rest, "blobs/"):
		s.serveBlob(w, r, strings.TrimPrefix(rest, "blobs/"))
	case strings.HasPrefix(rest, "index/"):
		s.serveIndex(w, r, strings.TrimPrefix(rest, "index/"))
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, sum string) {
	if !ValidSum(sum) {
		http.Error(w, "cas: malformed blob sum", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		b, err := s.store.Get(sum)
		if err != nil {
			// ErrCorrupt deliberately maps to 404: the quarantined bytes
			// must never leave the store, so to a client the entry simply
			// does not exist until it is re-put.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(b)
	case http.MethodHead:
		if !s.store.Has(sum) {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodPut:
		b, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes+1))
		if err != nil {
			http.Error(w, "cas: read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(b) > maxBlobBytes {
			http.Error(w, "cas: blob too large", http.StatusRequestEntityTooLarge)
			return
		}
		if Sum(b) != sum {
			http.Error(w, "cas: body does not hash to claimed sum", http.StatusBadRequest)
			return
		}
		if _, err := s.store.Put(b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "GET, HEAD, or PUT", http.StatusMethodNotAllowed)
	}
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request, key string) {
	if key == "" {
		http.Error(w, "cas: empty index key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		sum, err := s.store.Resolve(key)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, sum)
	case http.MethodPut:
		b, err := io.ReadAll(io.LimitReader(r.Body, 256))
		if err != nil || !ValidSum(string(b)) {
			http.Error(w, "cas: body must be a blob sum", http.StatusBadRequest)
			return
		}
		if err := s.store.Link(key, string(b)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
	}
}

// Client fetches and stores blobs against one CAS base, a URL like
// "http://host:port/v1/cas". Fetches verify the bytes against the requested
// sum: the wire is never trusted, so a corrupt copy is an error, never a
// wrong answer.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client over base. hc may be nil for a default client
// with a 30s timeout.
func NewClient(hc *http.Client, base string) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimSuffix(base, "/"), hc: hc}
}

// do sends one request to path under the base and returns the response
// status with at most limit bytes of its body.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, b, err
}

// Fetch returns the verified blob for sum.
func (c *Client) Fetch(ctx context.Context, sum string) ([]byte, error) {
	code, b, err := c.do(ctx, http.MethodGet, "/blobs/"+sum, nil, maxBlobBytes+1)
	switch {
	case err != nil:
		return nil, err
	case code != http.StatusOK:
		return nil, fmt.Errorf("cas: fetch %.12s from %s: status %d", sum, c.base, code)
	case Sum(b) != sum:
		return nil, fmt.Errorf("%w: %.12s from %s", ErrCorrupt, sum, c.base)
	}
	return b, nil
}

// put sends body to path, which must answer 201.
func (c *Client) put(ctx context.Context, path string, body io.Reader) error {
	code, _, err := c.do(ctx, http.MethodPut, path, body, 1<<10)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("status %d", code)
	}
	return err
}

// Put stores b and returns its sum.
func (c *Client) Put(ctx context.Context, b []byte) (string, error) {
	sum := Sum(b)
	if err := c.put(ctx, "/blobs/"+sum, bytes.NewReader(b)); err != nil {
		return "", fmt.Errorf("cas: put %.12s: %w", sum, err)
	}
	return sum, nil
}

// Link binds key to sum.
func (c *Client) Link(ctx context.Context, key, sum string) error {
	if err := c.put(ctx, "/index/"+key, strings.NewReader(sum)); err != nil {
		return fmt.Errorf("cas: link %q: %w", key, err)
	}
	return nil
}

// FetchKey resolves key and fetches the bound blob.
func (c *Client) FetchKey(ctx context.Context, key string) ([]byte, error) {
	code, b, err := c.do(ctx, http.MethodGet, "/index/"+key, nil, 256)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK || !ValidSum(string(b)) {
		return nil, ErrNotFound
	}
	return c.Fetch(ctx, string(b))
}
