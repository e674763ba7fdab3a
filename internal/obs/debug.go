// The opt-in HTTP debug endpoint: `sysmond -debug addr` and
// `wizardd -debug addr` serve their registry here so operators (and
// the CI smoke job) can read the whole pipeline's state with curl.
// It is a diagnostics port, not a public API: bind it to loopback or
// an operations network.

package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"smartsock/internal/loop"
)

// DebugServer serves a registry over HTTP:
//
//	GET /metrics       plaintext dump (sorted name value lines)
//	GET /metrics.json  the Snapshot as indented JSON
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewDebugServer binds the debug listener; addr may use port 0.
func NewDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", textHandler(reg))
	mux.Handle("/metrics.json", jsonHandler(reg))
	return &DebugServer{
		ln: ln,
		srv: &http.Server{
			Handler:      mux,
			ReadTimeout:  10 * time.Second,
			WriteTimeout: 10 * time.Second,
		},
	}, nil
}

// Addr reports the bound address (useful with port 0).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Run serves until the context is cancelled or serving fails, and
// returns with the listener and every connection closed.
func (d *DebugServer) Run(ctx context.Context) error {
	g, _ := loop.NewGroup(ctx)
	g.Close(d.srv) // Serve surfaces this close as http.ErrServerClosed
	g.Go("obs: debug endpoint", func(context.Context) error { return d.srv.Serve(d.ln) })
	return g.Wait()
}

func textHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A reader disconnecting mid-dump is its own problem; the next
		// scrape starts fresh.
		_ = reg.Snapshot().WriteText(w)
	})
}

func jsonHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
}
