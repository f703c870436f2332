package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// kind classifies a generated request.
type kind int

const (
	kindRound kind = iota
	kindPoly
	kindRaster // 100x100 JSON raster
	kindPGM    // 64x64 PGM raster
)

// request is one generated HTTP call.
type request struct {
	kind kind
	dep  int
	path string
	inm  bool // send If-None-Match with the last ETag seen for path
}

// sample is one completed request; times are relative to the phase
// origin.
type sample struct {
	kind       kind
	start, end time.Duration
	ok         bool
}

func (s sample) latencyMs() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// client is one keep-alive connection to an endpoint, with the ETags it
// has seen per path. It belongs to one goroutine.
type client struct {
	base  string
	tr    *http.Transport
	hc    *http.Client
	etags map[string]string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, etags: map[string]string{}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body. A transport error is
// returned as status 0.
func (c *client) do(method, path string, inm bool) (status int, body []byte, version int) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return 0, nil, 0
	}
	if inm {
		if et, ok := c.etags[path]; ok {
			req.Header.Set("If-None-Match", et)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0
	}
	et := resp.Header.Get("ETag")
	if et != "" && method == http.MethodGet {
		c.etags[path] = et
	}
	return resp.StatusCode, body, etagVersion(et)
}

// etagVersion extracts v from an ETag of the form "<id>-v<v>".
func etagVersion(et string) int {
	i := strings.LastIndex(et, "-v")
	if i < 0 {
		return 0
	}
	v, err := strconv.Atoi(strings.Trim(et[i+2:], `"`))
	if err != nil {
		return 0
	}
	return v
}

// statusOK reports whether a response is a success: 200, or 304 for a
// request that carried If-None-Match.
func statusOK(r request, status int) bool {
	return status == http.StatusOK || (r.inm && status == http.StatusNotModified)
}

// bodySink receives every successful response body; it runs on the
// sending goroutine, so implementations synchronize themselves.
type bodySink func(r request, version int, body []byte)

// send performs one request and records its sample.
func send(c *client, origin time.Time, r request, sink bodySink) sample {
	start := time.Since(origin)
	method := http.MethodGet
	if r.kind == kindRound {
		method = http.MethodPost
	}
	status, body, version := c.do(method, r.path, r.inm)
	s := sample{kind: r.kind, start: start, end: time.Since(origin), ok: statusOK(r, status)}
	if s.ok && status == http.StatusOK && sink != nil {
		sink(r, version, body)
	}
	return s
}
