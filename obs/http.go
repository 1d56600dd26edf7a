package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// handler serves a registry's metrics in text exposition format.
func handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// newMux builds the observability mux: /metrics plus the standard
// net/http/pprof endpoints under /debug/pprof/. pprof is mounted on
// this private mux explicitly (not http.DefaultServeMux) so enabling
// metrics never leaks profiling onto some other listener.
func newMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability HTTP endpoint.
type Server struct {
	ln net.Listener
	hs *http.Server
}

// Serve starts the observability endpoint on addr and returns
// immediately; the HTTP server runs until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, hs: &http.Server{Handler: newMux(reg)}}
	go s.hs.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.hs.Close() }
