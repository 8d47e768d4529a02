package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"casq/internal/experiments"
	"casq/internal/obs"
	"casq/internal/serve"
	"casq/internal/store"
	"casq/internal/sweep"
)

// harness hosts the real serve.Server handler — the code `casq serve`
// runs — on a loopback listener inside this process, over a fresh disk
// store with the default memory tier, and drives it with one keep-alive
// HTTP client. In a traced phase it also records the benchmark's own spans
// around the calls it makes or wraps: the HTTP request, the server
// handler, the store backend, and sweep.Cache.Compute.
type harness struct {
	dir     string
	backend *tracedBackend
	store   *store.Store
	cache   *sweep.Cache
	server  *serve.Server
	handler atomic.Pointer[http.Handler] // read by the server's goroutines
	hs      *http.Server
	client  *http.Client
	base    string
	traced  bool

	// tr is the current request's tracer (nil outside traced requests).
	tr atomic.Pointer[obs.Tracer]
	// lastFig is the figure most recently computed by the traced compute
	// wrapper, kept for the json.Marshal timing.
	lastFig atomic.Pointer[experiments.Figure]
}

// newHarness builds a server over a fresh disk store under root and starts
// serving it on 127.0.0.1.
func newHarness(root string, traced bool) (*harness, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := &harness{dir: dir, traced: traced}
	h.backend = &tracedBackend{Backend: disk, h: h}
	h.store = store.OpenWith(h.backend, store.DefaultMemCapacity)
	h.cache = sweep.NewCache(h.store)
	if traced {
		h.cache.Compute = h.compute
	}
	h.resetServer()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.server.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	})}
	go h.hs.Serve(ln)
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	return h, nil
}

// resetServer installs a new serve.Server over the same cache, dropping
// per-server state such as the layout drift monitors.
func (h *harness) resetServer() {
	srv := serve.NewWith(serve.Config{Cache: h.cache})
	var handler http.Handler = srv.Handler()
	if h.traced {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := h.tr.Load().Start("serve.handler")
			inner.ServeHTTP(w, r)
			sp.End()
		})
	}
	if h.server != nil {
		h.server.Close()
	}
	h.server = srv
	h.handler.Store(&handler)
}

// close stops the listener and the server and deletes the store.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.hs.Close()
	h.server.Close()
	os.RemoveAll(h.dir)
}

// compute is the traced sweep.Cache.Compute: experiments.Run with the
// request's tracer attached through the public Options.Tracer.
func (h *harness) compute(id string, opts experiments.Options) (experiments.Figure, error) {
	tr := h.tr.Load()
	opts.Tracer = tr
	sp := tr.Start("sweep.compute")
	fig, err := experiments.Run(id, opts)
	sp.End()
	h.lastFig.Store(&fig)
	return fig, err
}

// response is one completed HTTP exchange.
type response struct {
	status int
	cache  string // X-Casq-Cache header
	body   []byte
	lat    time.Duration
}

// do sends one request and reads the whole reply. The latency is the
// client-observed time from sending to the last body byte.
func (h *harness) do(method, path, body string) (response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return response{}, err
	}
	tr := h.tr.Load()
	start := time.Now()
	sp := tr.Start("request")
	resp, err := h.client.Do(req)
	if err != nil {
		return response{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	lat := time.Since(start)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Casq-Cache"), body: data, lat: lat}, nil
}

// serveDirect runs a GET through the current handler without the
// network, returning its duration; the traced layout run uses it to time
// serve's own routing and encoding on a route whose work is already done.
func (h *harness) serveDirect(path string) (time.Duration, error) {
	handler := *h.handler.Load()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	start := time.Now()
	handler.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return d, nil
}

// tracedBackend decorates the disk backend: it counts loads for the
// exact-count tripwire and, in traced requests, records a span per call.
type tracedBackend struct {
	store.Backend
	h     *harness
	loads atomic.Int64
}

func (b *tracedBackend) Load(k store.Key) ([]byte, bool, error) {
	sp := b.h.tr.Load().Start("store.backend.load")
	data, ok, err := b.Backend.Load(k)
	sp.End()
	b.loads.Add(1)
	return data, ok, err
}

func (b *tracedBackend) Store(k store.Key, data []byte) error {
	sp := b.h.tr.Load().Start("store.backend.store")
	err := b.Backend.Store(k, data)
	sp.End()
	return err
}
