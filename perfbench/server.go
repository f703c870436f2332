package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"
	"unsafe"

	"isomap/internal/serve"
)

// endpoint is an in-process server on a loopback listener.
type endpoint struct {
	base string
	hs   *http.Server
	done chan struct{}
}

func listen(srv *serve.Server) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ep := &endpoint{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: srv}, done: make(chan struct{})}
	go func() {
		defer close(ep.done)
		_ = ep.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return ep, nil
}

// close stops the listener and every connection, and waits for Serve to
// return.
func (ep *endpoint) close() {
	_ = ep.hs.Close()
	<-ep.done
}

// newServer builds a server for w. A workload that checkpoints gets a
// fresh checkpoint directory under wd, returned as dir.
func newServer(wd string, w *workload) (srv *serve.Server, dir string, err error) {
	cfg := w.cfg
	if w.checkpoint {
		if dir, err = os.MkdirTemp(wd, "ckpt-"); err != nil {
			return nil, "", err
		}
		cfg.CheckpointDir = dir
	}
	srv, err = serve.NewServer(cfg)
	return srv, dir, err
}

func postRound(c *client, dep int) error {
	status, _, _ := c.do(http.MethodPost, depPath(dep, "/rounds"), false)
	if status != http.StatusOK {
		return fmt.Errorf("POST round on d%d: status %d", dep, status)
	}
	return nil
}

// measureSetup times setupReps cold starts: NewServer, the loopback
// listener, and a first round on every deployment.
func measureSetup(wd string, w *workload) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		srv, _, err := newServer(wd, w)
		if err != nil {
			return nil, err
		}
		ep, err := listen(srv)
		if err != nil {
			return nil, err
		}
		c := newClient(ep.base)
		for dep := 0; dep < w.cfg.Deployments && err == nil; dep++ {
			err = postRound(c, dep)
		}
		out = append(out, time.Since(t0).Seconds())
		c.close()
		ep.close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// copyDir copies the checkpoint files of src into a new directory.
func copyDir(wd, src string) (string, error) {
	dst, err := os.MkdirTemp(wd, "restore-")
	if err != nil {
		return "", err
	}
	files, err := filepath.Glob(filepath.Join(src, "*.json"))
	if err != nil {
		return "", err
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// get serves one GET through the handler with a recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// bootRestore boots a server from the checkpoint copy in dir and times
// it until /readyz answers 200. The restored raster of every deployment
// goes into bodies, so the gate checks that the restart is
// byte-identical.
func bootRestore(cfg serve.Config, dir string, bodies *bodyStore) (float64, error) {
	cfg.CheckpointDir = dir
	t0 := time.Now()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	if w := get(srv, "/readyz"); w.Code != http.StatusOK {
		return 0, fmt.Errorf("restore: /readyz status %d", w.Code)
	}
	sec := time.Since(t0).Seconds()
	for dep := 0; dep < cfg.Deployments; dep++ {
		path, _ := hotPath(dep, hotRaster)
		w := get(srv, path)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("restored raster: status %d", w.Code)
		}
		bodies.add(dep, etagVersion(w.Header().Get("ETag")), w.Body.Bytes())
	}
	return sec, nil
}

// restoreProbe measures restore_s for a workload that does not
// checkpoint: the same deployments with a checkpoint directory run
// restoreAt rounds, then a server boots from a copy of the checkpoint.
// Analytic restores are cheap, so it boots probeReps times.
func restoreProbe(wd string, w *workload, bodies *bodyStore) ([]float64, error) {
	probe := *w
	probe.checkpoint = true
	var out []float64
	for i := 0; i < probeReps; i++ {
		srv, dir, err := newServer(wd, &probe)
		if err != nil {
			return nil, err
		}
		for r := 0; r < restoreAt; r++ {
			if err := srv.AdvanceAll(); err != nil {
				return nil, err
			}
		}
		cp, err := copyDir(wd, dir)
		if err != nil {
			return nil, err
		}
		sec, err := bootRestore(w.cfg, cp, bodies)
		if err != nil {
			return nil, err
		}
		out = append(out, sec)
	}
	return out, nil
}

// liveHeapMB forces a GC and returns the live heap, less the generator's
// own sample buffers (their size follows the run's length, not the
// server).
func liveHeapMB(samples ...[]sample) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := 0
	for _, ss := range samples {
		own += cap(ss) * int(unsafe.Sizeof(sample{}))
	}
	return float64(int(ms.HeapAlloc)-own) / (1 << 20)
}

// cpuClock reads the runtime's GC and total CPU-time estimates.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func gcPct(a, b cpuClock) float64 { return 100 * ratio(b.gc-a.gc, b.total-a.total) }

// scrapeVars reads the server's counters from /debug/vars.
func scrapeVars(h http.Handler) (map[string]int64, error) {
	w := get(h, "/debug/vars")
	var doc struct {
		Isomapd map[string]json.RawMessage `json:"isomapd"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	out := map[string]int64{}
	for k, v := range doc.Isomapd {
		if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

func varsDelta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}
