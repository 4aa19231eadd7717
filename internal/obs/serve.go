package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler returns an http.Handler exposing the registry snapshot at
// /metrics (text) and /metrics.json (JSON), plus the standard
// net/http/pprof profiling endpoints under /debug/pprof/.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(r.Snapshot().Text()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		out, err := r.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Handler exposes the default registry (see Registry.Handler).
func Handler() http.Handler { return defaultRegistry.Handler() }

// Server is a running HTTP endpoint: the handle Serve and ListenAndServe
// return. It owns the listener, the http.Server and the serve loop's exit
// error, so closing it shuts down active connections too: Shutdown drains
// them gracefully and surfaces the serve error, Close drops them.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	done     chan error // the srv.Serve result, delivered exactly once
	once     sync.Once
	serveErr error
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// waitServe collects the serve loop's exit error; safe to call from both
// Shutdown and Close, in any order. http.ErrServerClosed — the normal
// stopped-on-purpose exit — is filtered out.
func (s *Server) waitServe() error {
	s.once.Do(func() {
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
		}
	})
	return s.serveErr
}

// Shutdown gracefully stops the server: accepts stop immediately, active
// connections drain until they finish or ctx expires. It returns the
// first error among the shutdown itself and the serve loop's exit.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serveErr := s.waitServe(); err == nil {
		err = serveErr
	}
	return err
}

// Close stops the server immediately, dropping active connections.
func (s *Server) Close() error {
	err := s.srv.Close()
	if serveErr := s.waitServe(); err == nil {
		err = serveErr
	}
	return err
}

// Serve starts an HTTP server for the default registry on addr (e.g.
// "localhost:6060" or ":0" for an ephemeral port) and returns a handle;
// call Shutdown (graceful) or Close (immediate) to stop it. The endpoint
// is opt-in — nothing is served unless the embedding process calls Serve.
func Serve(addr string) (*Server, error) { return ListenAndServe(addr, Handler()) }

// ListenAndServe binds addr (":0" for ephemeral) and serves h in the
// background — the one accept loop behind both the metrics endpoint and
// the statd daemon; stop it with Shutdown (graceful drain) or Close.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}
