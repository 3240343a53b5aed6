package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerConfig wires the observability endpoints: any nil piece simply
// 404s its path.
type ServerConfig struct {
	// Registry serves /metrics in Prometheus text exposition format.
	Registry *Registry
	// Status, when non-nil, is marshaled as JSON for /statusz on every
	// request — live config, routing tables, recent traffic, whatever
	// the runtime chooses to report.
	Status func() any
	// Tracer serves /trace as a Chrome trace_event JSON dump of the
	// event ring at request time.
	Tracer *Tracer
}

// Server is a running observability HTTP listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (e.g. ":9091" or "127.0.0.1:0") and
// serves /metrics, /statusz and /trace, and the Go runtime's profiles
// under /debug/pprof/ (go tool pprof http://addr/debug/pprof/allocs
// profiles a live node). Close shuts it down.
func StartServer(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Status == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cfg.Status())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		cfg.Tracer.WriteChromeJSON(w)
	})
	// On this mux, not http.DefaultServeMux, where importing the package
	// also registers them.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
