package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxqo/internal/server"
	"approxqo/internal/trace"
)

// clients is the closed-loop client count; each owns one keep-alive
// connection.
const clients = 2

// serverConfig sets every field the run depends on, instead of letting
// the server derive it from GOMAXPROCS: two worker slots for two
// clients, a ladder that never degrades or sheds at that load, the
// default 2 s budget, the default cache size, and a seed per run.
func serverConfig(seed int64, tr *trace.Tracer, reg *trace.Registry) server.Config {
	return server.Config{
		MaxConcurrent:  2,
		QueueDepth:     8,
		DegradeAt:      8,
		DefaultTimeout: 2 * time.Second,
		CacheSize:      server.DefaultCacheSize,
		Seed:           seed,
		Route:          false, // zipf-mixed routes per job
		Tracer:         tr,
		Metrics:        reg,
	}
}

// liveServer is one in-process server on a loopback listener and the
// two clients talking to it.
type liveServer struct {
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	url     string
	clients [clients]*http.Client
	served  chan struct{} // closed when Serve returns
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ln:     ln,
		url:    "http://" + ln.Addr().String() + "/optimize",
		served: make(chan struct{}),
	}
	for k := range ls.clients {
		ls.clients[k] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	go func() {
		defer close(ls.served)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return ls, nil
}

// close drains the server, closes the listener and every connection on
// both sides, and waits for Serve to return. It is safe on every exit
// path, including after the run context was cancelled.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
	drainErr := ls.srv.Shutdown(ctx)
	if err := ls.hs.Shutdown(ctx); err != nil {
		ls.hs.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	ls.ln.Close()
	<-ls.served
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
	return drainErr
}

// post sends one request body and reads the whole response into buf.
// It never retries: a refused or failed request is reported as is.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// warm sends the workload's warm-up instances through POST /optimize
// from both clients; every one must come back certified at the full
// rung, or set-up fails.
func (ls *liveServer) warm(ctx context.Context, w *workloadDef) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1) - 1)
				if j >= len(w.warm) || ctx.Err() != nil {
					return
				}
				in := w.insts[w.warm[j]]
				status, err := post(ctx, ls.clients[k], ls.url, in.body, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				}
				if err == nil {
					var doc leanDoc
					if err = json.Unmarshal(buf.Bytes(), &doc); err == nil && !doc.ok() {
						err = errors.New("not a certified full-rung result")
					}
				}
				if err != nil {
					errs[k] = fmt.Errorf("warm-up %s n=%d: %w", in.family, in.n, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// leakCheck verifies that nothing of the run survives: every listener
// refuses connections and the goroutine count is back to the baseline
// taken before the first server started.
func leakCheck(addrs []string, baseline int) error {
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			return fmt.Errorf("listener %s still accepts connections", a)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines left running (baseline %d):\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
