package fleet

import (
	"autarky/internal/libos"
	"autarky/internal/service"
)

// Serving describes a serving tenant: an enclave request server whose
// host-side frontend is built once and outlives every incarnation.
type Serving struct {
	// Handlers registers the request handlers on an incarnation. Handlers
	// live in the enclave, so it runs on every incarnation.
	Handlers func(p *libos.Process)
	// Options, Conns and Load build the server on the first incarnation:
	// service.New, Conns dials, then Preload.
	Options service.Options
	Conns   int
	Load    service.OpenLoop
}

// Serve makes t a serving tenant by installing its Prepare, Body and Pause
// hooks, and returns t. The first incarnation builds the server, dials its
// connections and preloads its schedule; each later one (an adoption after
// a migration, a restore after a crash) rebinds that server. The fleet
// settles the server on a crash and severs its channel on a partition.
func (t *Tenant) Serve(s Serving) *Tenant {
	t.Prepare = s.prepare
	t.Body = serveLoop
	t.Pause = drainServer
	return t
}

// Server returns the tenant's request server: nil before the first
// admission, and for tenants not built by Serve.
func (t *Tenant) Server() *service.Server { return t.srv }

// prepare keeps the order handlers, server, dials, preload: Preload stamps
// arrivals from the clock at the moment it runs.
func (s Serving) prepare(t *Tenant, p *libos.Process, first bool) error {
	s.Handlers(p)
	if first {
		srv, err := service.New(p, s.Options)
		if err != nil {
			return err
		}
		t.srv = srv
		for i := 0; i < s.Conns; i++ {
			if _, err := srv.Dial(); err != nil {
				return err
			}
		}
		if err := srv.Preload(s.Load); err != nil {
			return err
		}
	} else if err := t.srv.Rebind(p); err != nil {
		return err
	}
	// Left on the old node's scheduler, an idle loop busy-polls its whole
	// quantum.
	t.srv.Idle = t.node.Sched.Yield
	return nil
}

func serveLoop(t *Tenant, p *libos.Process) error { return p.Run(t.srv.Loop) }

func drainServer(t *Tenant) { t.srv.Drain() }
