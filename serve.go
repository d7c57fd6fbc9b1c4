package autarky

import (
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// Service-layer types re-exported into the public API surface.
type (
	// Handler is an enclave-resident request handler: it runs inside the
	// enclave (ctx is the enclave's memory context) and its result or error
	// travels back to the client over the untrusted channel.
	Handler = libos.Handler
	// ServiceError is the service-layer error envelope: server, connection,
	// correlation id and operation of a failed request. It unwraps to the
	// sentinel saying why (ErrConnReset, ErrBackpressure, ...), so errors.Is
	// sees through it and errors.As recovers the coordinates.
	ServiceError = service.Error
	// ServiceStats is a server's traffic account (offered, admitted, served,
	// shed, reset, ...).
	ServiceStats = service.Stats
	// ArrivalProcess generates open-loop inter-arrival gaps (see Poisson,
	// Bursty).
	ArrivalProcess = service.ArrivalProcess
	// Poisson is the memoryless open-loop arrival process.
	Poisson = service.Poisson
	// Bursty is the on/off arrival process: fixed-size back-to-back bursts
	// with exponential silences, same mean load as Poisson, worse tails.
	Bursty = service.Bursty
	// OpenLoop describes an open-loop request schedule for Server.OpenLoop.
	// The server draws it as it runs, in index order, so NextReq is called
	// once per arrival, ahead of it, and may depend only on (i, r) and on
	// state it owns. A connection's open-loop arrivals take correlation ids
	// from 0 and its calls and keep-alives from 2^63 up.
	OpenLoop = service.OpenLoop
	// Rand is the simulation's deterministic random stream (the type
	// OpenLoop.NextReq receives).
	Rand = sim.Rand
	// Histogram is the exact one-cycle-bucket latency histogram behind
	// Server.Latency (see Server.Hist); its memory grows with the samples
	// recorded, not with the range.
	Histogram = metrics.Histogram
)

// Service-layer sentinels, joining the error taxonomy in autarky.go. All of
// them surface wrapped in a *ServiceError.
var (
	// ErrConnReset marks a connection torn down after a frame was corrupted
	// or lost in transit (or a blocking call timed out and aborted it).
	ErrConnReset = service.ErrConnReset
	// ErrBackpressure marks a request refused because the connection's
	// bounded queue was full — the open-loop overload signal.
	ErrBackpressure = service.ErrBackpressure
	// ErrRequestTimeout marks a request the server shed because its sojourn
	// exceeded the configured deadline (see WithDeadline).
	ErrRequestTimeout = service.ErrTimeout
	// ErrServerClosed marks traffic submitted to a closed server.
	ErrServerClosed = service.ErrClosed
	// ErrUnknownOp marks a request naming an operation no handler was
	// registered for.
	ErrUnknownOp = service.ErrUnknownOp
	// ErrRemoteFault is the generic remote-handler failure: the handler
	// returned an error outside the taxonomy the wire can carry.
	ErrRemoteFault = service.ErrAppError
)

// ServeOption customizes one server's channel behaviour.
type ServeOption func(*serveConfig)

type namedHandler struct {
	name string
	h    Handler
}

type serveConfig struct {
	handlers []namedHandler
	opts     service.Options
}

// WithHandler registers an enclave-resident handler under the given
// operation name. Registration order is the wire operation numbering; the
// table freezes at the first traffic.
func WithHandler(name string, h Handler) ServeOption {
	return func(c *serveConfig) { c.handlers = append(c.handlers, namedHandler{name, h}) }
}

// WithQueueCap bounds each connection's request queue (default 64);
// admission beyond it is refused with ErrBackpressure.
func WithQueueCap(n int) ServeOption {
	return func(c *serveConfig) { c.opts.QueueCap = n }
}

// WithKeepAlive probes any connection idle for the given cycles with a
// keep-alive frame (0, the default, disables keep-alives).
func WithKeepAlive(every uint64) ServeOption {
	return func(c *serveConfig) { c.opts.KeepAliveEvery = every }
}

// WithDeadline sheds requests whose queueing delay exceeds the given cycles
// before their handler runs; the client sees ErrRequestTimeout (0 disables).
func WithDeadline(cycles uint64) ServeOption {
	return func(c *serveConfig) { c.opts.Deadline = cycles }
}

// WithCallTimeout bounds how long a blocking Conn.Call drives the machine
// waiting for its reply before aborting the connection (default 1<<22
// cycles). Expiry surfaces as ErrConnReset.
func WithCallTimeout(cycles uint64) ServeOption {
	return func(c *serveConfig) { c.opts.CallTimeout = cycles }
}

// WithChannelFaults subjects every frame delivery to the plan's seeded
// in-transit faults — corruption, loss, delay — exactly as WithFaultPlan
// does for paging blobs. The zero plan is a perfect channel.
func WithChannelFaults(plan FaultPlan) ServeOption {
	return func(c *serveConfig) { c.opts.ChannelFaults = plan }
}

// WithLatencyRange bounds the exact range of the per-request latency
// histogram in cycles (default 1<<22); longer sojourns clamp into the last
// bucket and count as saturated.
func WithLatencyRange(max uint64) ServeOption {
	return func(c *serveConfig) { c.opts.HistMax = max }
}

// Server is an enclave-resident service running under the machine
// scheduler: an enclave process whose application body is the service
// dispatch loop. Create one with Machine.Serve, attach clients with Dial,
// and either call into it (Conn.Call/Send) or preload an open-loop schedule
// (OpenLoop) and Drain.
type Server struct {
	p   *Proc
	svc *service.Server
}

// Serve loads an application image as an enclave, registers its request
// handlers, and starts the service dispatch loop under the machine
// scheduler. The loop yields its slice whenever nothing is due, so any
// number of servers (and plain Spawned processes) share the machine.
//
// Configuration problems — machine options, enclave config, serve options —
// are all reported as *ConfigError values matching errors.Is(err,
// ErrBadConfig).
func (m *Machine) Serve(img AppImage, cfg Config, opts ...ServeOption) (*Server, error) {
	var sc serveConfig
	for _, o := range opts {
		o(&sc)
	}
	p, err := m.Spawn(img, cfg)
	if err != nil {
		return nil, err
	}
	for _, h := range sc.handlers {
		p.Handle(h.name, h.h)
	}
	svc, err := service.New(p.Process, sc.opts)
	if err != nil {
		return nil, &ConfigError{Field: "ServeOptions", Reason: err.Error()}
	}
	svc.Idle = m.sched.Yield
	p.Start(svc.Loop)
	return &Server{p: p, svc: svc}, nil
}

// Proc returns the scheduled enclave process behind the server.
func (s *Server) Proc() *Proc { return s.p }

// Handle registers an additional handler. Must precede the first traffic
// (the operation table freezes then).
func (s *Server) Handle(name string, h Handler) { s.p.Handle(name, h) }

// Dial attaches a new client connection.
func (s *Server) Dial() (*Conn, error) {
	c, err := s.svc.Dial()
	if err != nil {
		return nil, err
	}
	return &Conn{s: s, c: c}, nil
}

// OpenLoop sets up an open-loop arrival schedule: ol.Requests requests
// spread across the connections dialed so far, with gaps drawn from
// ol.Arrivals, seeded by ol.Seed. The server draws the arrivals as it runs,
// up to 64 ahead of the clock, so its memory does not grow with
// ol.Requests and ol.NextReq is called while the machine runs (see
// OpenLoop). Drain then runs the server until the schedule is served.
func (s *Server) OpenLoop(ol OpenLoop) error { return s.svc.Preload(ol) }

// Drain drives the machine until the server's dispatch loop returns — an
// open-loop server drains when its schedule is spent, an interactive one
// when Close stops admission — and returns the loop's error (nil, or the
// enclave's termination error). Co-resident processes receive slices too.
func (s *Server) Drain() error { return s.p.Wait() }

// Close stops admission, lets the loop serve what is already queued, and
// waits for it to exit. Open-loop arrivals not yet admitted never are: the
// loop does not wait for them to come due.
func (s *Server) Close() error {
	s.svc.Close()
	return s.p.Wait()
}

// Stats returns the server's traffic account so far.
func (s *Server) Stats() ServiceStats { return s.svc.Stats() }

// Hist returns the exact per-request latency histogram (sojourn cycles of
// every successfully served request).
func (s *Server) Hist() *Histogram { return s.svc.Hist() }

// LatencyStats summarizes the per-request sojourn distribution: exact
// nearest-rank percentiles over 1-cycle-wide buckets.
type LatencyStats struct {
	Count     uint64  // served requests recorded
	Mean      float64 // mean sojourn, cycles
	P50       uint64  // median sojourn, cycles
	P99       uint64  // 99th percentile
	P999      uint64  // 99.9th percentile
	Max       uint64  // worst sojourn observed
	Saturated uint64  // samples clamped at the histogram range
}

// Latency summarizes the server's per-request latency histogram.
func (s *Server) Latency() LatencyStats {
	h := s.svc.Hist()
	return LatencyStats{
		Count:     h.Count(),
		Mean:      h.Mean(),
		P50:       h.Percentile(0.50),
		P99:       h.Percentile(0.99),
		P999:      h.Percentile(0.999),
		Max:       h.Max(),
		Saturated: h.Saturated(),
	}
}

// Conn is one client connection to a Server: a bounded request queue on the
// server side, correlation state on the client side.
type Conn struct {
	s *Server
	c *service.Conn
}

// ID returns the connection's id (dense, in Dial order).
func (c *Conn) ID() uint32 { return c.c.ID() }

// Resets reports how many times the connection was reset.
func (c *Conn) Resets() uint64 { return c.c.Resets() }

// Send enqueues a fire-and-forget request: the reply updates the server's
// statistics but is not delivered anywhere. The error is the admission
// verdict (ErrBackpressure, ErrUnknownOp, ErrServerClosed).
func (c *Conn) Send(op string, arg uint64) error { return c.c.Send(op, arg) }

// Call issues a request and drives the machine scheduler until the
// correlated reply arrives, the connection resets, or the call times out
// (see WithCallTimeout). Co-resident processes run normally while the call
// blocks. Remote handler errors come back through the wire taxonomy:
// errors.Is recognizes ErrQuotaExceeded, ErrRateLimited, ErrRequestTimeout,
// ErrUnknownOp; anything else folds to ErrRemoteFault.
func (c *Conn) Call(op string, arg uint64) (uint64, error) {
	m := c.s.p.m
	corr, gen, err := c.c.Submit(op, arg)
	if err != nil {
		return 0, err
	}
	deadline := m.Clock.Cycles() + c.s.svc.Options().CallTimeout
	timedOut := false
	// The predicate runs on whichever goroutine holds the CPU when a slice
	// ends, a task's as often as this one (see sched.Scheduler.Drive): it
	// only reads the connection, the server and the clock, and records a
	// timeout in timedOut, which Drive's return orders before the reads
	// below.
	driveErr := m.sched.Drive(func() bool {
		if c.c.Ready(corr) || c.c.Gen() != gen || c.s.p.Done() {
			return true
		}
		if m.Clock.Cycles() >= deadline {
			timedOut = true
			return true
		}
		return false
	})
	if f, ok := c.c.TakeReply(corr); ok {
		if rerr := f.Err(); rerr != nil {
			return 0, c.envelope(op, corr, rerr)
		}
		return f.Arg, nil
	}
	if c.c.Gen() != gen {
		return 0, c.envelope(op, corr, ErrConnReset)
	}
	if c.s.p.Done() {
		// The server exited under the call: its termination error (already
		// in the taxonomy) is the reason; a clean exit is a reset.
		if werr := c.s.p.Wait(); werr != nil {
			return 0, werr
		}
		return 0, c.envelope(op, corr, ErrConnReset)
	}
	if timedOut {
		// Give up on the reply: tear the connection down so a late reply
		// cannot be mistaken for a fresh one.
		c.c.Abort()
		return 0, c.envelope(op, corr, ErrConnReset)
	}
	if driveErr != nil {
		return 0, driveErr
	}
	return 0, c.envelope(op, corr, ErrConnReset)
}

// envelope wraps a call failure with its connection coordinates.
func (c *Conn) envelope(op string, corr uint64, err error) error {
	return &ServiceError{Server: c.s.svc.Name(), Conn: c.c.ID(), Corr: corr, Op: op, Err: err}
}
