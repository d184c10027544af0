package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// ready gates /readyz. It starts true (a process that can serve HTTP can
// also answer queries); long drivers may clear it during teardown so a
// supervisor stops routing scrapes at a clean boundary.
var ready atomic.Bool

func init() { ready.Store(true) }

// SetReady sets the /readyz state.
func SetReady(ok bool) { ready.Store(ok) }

// DebugServer is the opt-in HTTP introspection endpoint behind the CLI's
// -debug-addr flag. It serves:
//
//	/metrics          the default registry in Prometheus text format
//	/healthz          liveness: always 200 while the server is up
//	/readyz           readiness: 200, or 503 after SetReady(false)
//	/debug/vars       expvar: the runtime's own vars (memstats, cmdline)
//	/debug/pprof/...  the full net/http/pprof suite
//
// so a long sweep that looks stuck can be inspected in flight: goroutine
// dumps show where the pool is blocked, and successive /metrics scrapes
// show whether cells are still finishing. /metrics is the registry's one
// live exposure; the JSON run report is written by the -metrics flag.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewDebugMux returns a fresh mux with the full introspection surface
// (the routes DebugServer documents) registered. The serving layer mounts
// it next to its own API routes so one listener exposes both; ServeDebug
// serves it alone. Every handler reads the process-wide Default registry
// and readiness state, so all mounts agree.
func NewDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	registerDebugRoutes(mux)
	return mux
}

// ServeDebug starts the introspection endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") and serves until Close.
func ServeDebug(addr string) (*DebugServer, error) {
	mux := NewDebugMux()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// registerDebugRoutes installs the introspection handlers on mux.
func registerDebugRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n")) //nolint:errcheck // best-effort response
			return
		}
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort response
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Addr returns the bound listen address (useful with port 0).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *DebugServer) Close() error { return s.srv.Close() }
