package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// publishOnce guards the expvar publication: expvar.Publish panics on
// duplicate names, and ServeDebug may be called more than once (tests,
// restart loops).
var publishOnce sync.Once

// publishExpvar exposes the process-wide registry snapshot as the expvar
// variable "choir_metrics", so it appears in /debug/vars alongside the
// runtime's memstats.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("choir_metrics", expvar.Func(func() any {
			return TakeSnapshot()
		}))
	})
}

// ServeDebug starts an HTTP server on addr exposing the standard Go
// debugging surface: /debug/vars (expvar, including the "choir_metrics"
// snapshot), /debug/pprof/ (CPU, heap, goroutine, block profiles, and
// execution traces), and the /healthz and /readyz probe endpoints backed by
// RegisterHealthCheck / RegisterReadyCheck. It returns the bound address
// (useful with ":0") after
// the listener is live, plus a shutdown function that stops the server:
// shutdown attempts a graceful drain bounded by its context and falls back
// to closing the server outright when the context fires first. Shutdown is
// idempotent and always leaves the listener closed and the serve goroutine
// finished.
//
// The handlers are mounted on a private mux, so importing this package does
// not register anything on http.DefaultServeMux.
func ServeDebug(addr string) (string, func(context.Context) error, error) {
	publishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listener on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w)
	})
	mux.Handle("/healthz", &healthChecks)
	mux.Handle("/readyz", &readyChecks)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		// Serve returns http.ErrServerClosed after Shutdown/Close; any
		// other error means the listener died, which shutdown tolerates.
		_ = srv.Serve(ln)
	}()
	var once sync.Once
	shutdown := func(ctx context.Context) error {
		var err error
		once.Do(func() {
			if ctx == nil {
				ctx = context.Background()
			}
			if err = srv.Shutdown(ctx); err != nil {
				// Graceful drain timed out or was canceled: drop the
				// remaining connections so nothing leaks.
				err = fmt.Errorf("obs: debug server drain: %w", err)
				_ = srv.Close()
			}
			<-served
		})
		return err
	}
	return ln.Addr().String(), shutdown, nil
}
