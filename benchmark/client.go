package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the load generator: one closed-loop client on one keep-alive
// connection. An analyst session waits for each answer before asking the next
// question, and client plus daemon are the two cores the sizing box has.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			// Headers are set explicitly per request: the transport must not
			// ask for gzip (and silently decode it) on its own.
			DisableCompression:  true,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status  int
	etag    string
	gzipped bool
	size    int           // body bytes on the wire
	body    []byte        // kept only when asked for
	latency time.Duration // send to last body byte
}

// do sends one request and reads the whole answer. etag is the validator to
// send when the request is conditional.
func (c *client) do(rq request, etag string, keep bool) (reply, error) {
	hr, err := http.NewRequest(http.MethodGet, c.base+rq.target, nil)
	if err != nil {
		return reply{}, err
	}
	if rq.cond && etag != "" {
		hr.Header.Set("If-None-Match", etag)
	}
	if rq.gzip {
		hr.Header.Set("Accept-Encoding", "gzip")
	}
	start := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var n int64
	var buf bytes.Buffer
	if keep {
		n, err = buf.ReadFrom(resp.Body)
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	r := reply{
		status:  resp.StatusCode,
		etag:    resp.Header.Get("ETag"),
		gzipped: resp.Header.Get("Content-Encoding") == "gzip",
		size:    int(n),
		body:    buf.Bytes(),
		latency: time.Since(start),
	}
	if err != nil {
		return r, fmt.Errorf("reading body of %s: %w", rq.target, err)
	}
	return r, nil
}

// text returns the answer's JSON text, undoing the content coding.
func (r reply) text() ([]byte, error) {
	if !r.gzipped {
		return r.body, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// accepted reports whether the status is the one the request should get: 304
// for a conditional request whose validator is current, 200 otherwise.
func (r reply) accepted(rq request, etag string) error {
	want := http.StatusOK
	if rq.cond && etag != "" {
		want = http.StatusNotModified
	}
	if r.status != want {
		return fmt.Errorf("status %d, want %d", r.status, want)
	}
	if want == http.StatusNotModified && r.etag != etag {
		return fmt.Errorf("304 carries ETag %s, sent %s", r.etag, etag)
	}
	if want == http.StatusOK && r.size == 0 {
		return fmt.Errorf("empty body")
	}
	return nil
}

// waitReady polls with rq until it is answered 200, and returns that first
// answer.
func (c *client) waitReady(rq request, limit time.Duration) (reply, error) {
	deadline := time.Now().Add(limit)
	for {
		r, err := c.do(rq, "", true)
		if err == nil && r.status == http.StatusOK {
			return r, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", r.status)
			}
			return reply{}, fmt.Errorf("no answer after %v: %w", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}
