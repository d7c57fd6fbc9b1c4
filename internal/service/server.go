// Package service is the deterministic request-serving frontend: a
// request/reply channel protocol between an untrusted frontend and
// enclave-resident servers, plus the open-loop arrival machinery and the
// per-request latency recorder that turn the paper's closed batch loops
// into tail-latency experiments.
//
// # Channel model
//
// Clients reach a server over connections with bounded FIFO queues. Every
// frame (see Frame) carries a correlation id unique within its connection
// incarnation; replies are matched to requests by (connection, correlation)
// — never by ordering — so the protocol survives sheds and losses without
// ambiguity. The channel itself is untrusted: a fault.Plan rolls each
// delivery for corruption, truncation, loss or delay, exactly as the paging
// backends' plan does for blobs. Requests and replies cross it in one place
// (Server.cross). A frame that fails its checksum, on either leg, or a
// reply lost in transit, resets the whole connection: the incarnation
// counter bumps, queued frames of the old incarnation are discarded, and
// in-flight calls surface ErrConnReset. Replay rolls fizzle at this layer —
// correlation ids make duplicate frames inert — and delay rolls push a
// scheduled arrival (and, the channel being FIFO, everything behind it)
// later.
//
// # Dispatch
//
// The server's Loop runs as the enclave application body: it pumps due
// open-loop arrivals into the connection queues, serves frames in admission
// order, and records each successful reply's sojourn (reply cycle minus
// arrival cycle) into an exact one-cycle-bucket histogram. When nothing is due
// it charges a poll and — when the Idle hook is wired to the machine
// scheduler — yields its slice, so co-resident tenants run instead of
// watching one enclave busy-wait. Every cycle on the hot path is charged
// explicitly (ChargeAs with a named cost); all randomness comes
// from seeded sim.Rand and the stateless fault plan, so a serving run is
// byte-identical at any worker count.
package service

import (
	"fmt"
	"math"

	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// Channel direction codes mixed into fault-plan rolls (distinct from the
// paging layer's evict/fetch codes, so sharing one plan keeps the decision
// streams independent).
const (
	dirRequest uint64 = 0x5e1
	dirReply   uint64 = 0x5e2
	dirDelay   uint64 = 0x5e3
)

// Options configures one server's channel behaviour.
type Options struct {
	// QueueCap bounds each connection's request queue; admission beyond it
	// is refused with ErrBackpressure. Default 64.
	QueueCap int
	// KeepAliveEvery injects a keep-alive frame on any connection idle for
	// this many cycles (0 disables keep-alives).
	KeepAliveEvery uint64
	// Deadline sheds a request whose sojourn exceeds this many cycles
	// before its handler runs; the client sees ErrTimeout (0 disables).
	Deadline uint64
	// CallTimeout bounds how long a blocking client call waits for its
	// reply before declaring the connection dead (a request lost in
	// transit produces no reply at all — without this bound the caller
	// would wait forever). Expiry aborts the connection: the client sees
	// ErrConnReset. Default 1<<22 cycles.
	CallTimeout uint64
	// HistMax bounds the latency histogram's exact range in cycles; longer
	// sojourns clamp into the last bucket and count as saturated.
	// Default 1<<22 (~4.2M cycles).
	HistMax uint64
	// ChannelFaults rolls every frame delivery for in-transit faults.
	// The zero plan is a perfect channel.
	ChannelFaults fault.Plan
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.HistMax == 0 {
		o.HistMax = 1 << 22
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 1 << 22
	}
	return o
}

// validate rejects malformed options.
func (o Options) validate() error {
	if o.QueueCap < 0 {
		return fmt.Errorf("service: QueueCap = %d, want >= 0", o.QueueCap)
	}
	return o.ChannelFaults.Validate()
}

// Stats is a server's traffic account, read from its metrics scope.
// Offered = Admitted + Backpressure; every admitted request ends exactly
// one way: served, error reply, timeout shed, or dropped (lost in transit /
// discarded by a reset).
type Stats struct {
	Offered      uint64 // request admissions attempted on an open server
	Admitted     uint64 // requests accepted into a connection queue
	Served       uint64 // successful replies delivered intact
	Errors       uint64 // error replies delivered intact
	KeepAlives   uint64 // keep-alive round trips completed
	Backpressure uint64 // admissions refused on a full queue
	Timeouts     uint64 // requests shed past the deadline
	Resets       uint64 // connection resets
	Corrupt      uint64 // frames that failed their checksum in transit
	Dropped      uint64 // frames lost in transit or discarded on a reset
	IdlePolls    uint64 // loop polls that found nothing due
}

// Server dispatches frames for one enclave-resident process. Create with
// New, attach client connections with Dial, then either preload an
// open-loop schedule (Preload) or submit interactive traffic through the
// connections, and run Loop as the process's application body.
type Server struct {
	proc  *libos.Process
	clock *sim.Clock
	costs *sim.Costs
	// meter is the server's scope of the machine registry; it outlives
	// incarnations (Rebind keeps it), so Stats spans them all.
	meter *metrics.Metrics
	opts  Options
	// plan is the channel's fault plan, nil when it can never fire: a
	// zero plan only ever rolls fault.KindNone, so New decides once.
	plan *fault.Plan

	// Idle, when set, is invoked whenever the loop finds nothing due — the
	// facade wires it to the machine scheduler's Yield so an idle server
	// donates its slice instead of busy-polling. It must do nothing but
	// yield: the scheduler may account the polls of a loop parked in it in
	// place, without returning from Idle (see hostos.IdleProbe).
	Idle func()
	// parked is set while the loop is inside Idle.
	parked bool

	conns []*Conn

	// fifo is the admission-order dispatch ring (frames of every
	// connection, already admitted against its bounded queue).
	fifo     []Frame
	fifoHead int
	fifoLen  int

	// stream draws the open-loop schedule Preload set up; nil without one.
	stream *stream

	opNames  []string
	handlers []libos.Handler
	frozen   bool

	kaCursor int
	closed   bool
	// partUntil severs the untrusted channel while clock < partUntil:
	// requests vanish in transit and replies are lost (resetting their
	// connections), modelling a network partition between the frontend and
	// this server's machine (see Partition).
	partUntil uint64
	// draining pauses admission without closing: the loop serves what is
	// queued and returns, but the remaining schedule stays pending so a
	// Rebind onto a migrated incarnation can resume it (see Drain).
	draining bool
	scratch  [FrameBytes]byte
	hist     *metrics.Histogram
}

// Conn is one client connection: a bounded request queue plus the
// correlation state of its current incarnation.
type Conn struct {
	s   *Server
	id  uint32
	gen uint32 // incarnation; bumped on every reset

	n        int    // frames of the current incarnation queued
	nextCorr uint64 // next keep-alive or call correlation id, from callCorr
	lastAct  uint64 // cycle of the last completed exchange

	await    uint64 // correlation id a blocking call waits on
	awaiting bool
	reply    Frame // mailbox for the awaited reply
	hasReply bool
}

// New builds a server around a loaded process. Handlers must be registered
// (Process.Handle) before traffic flows; the operation table freezes at the
// first send, preload or dispatch.
func New(p *libos.Process, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		proc:  p,
		clock: p.Kernel.Clock,
		costs: p.Kernel.Costs,
		meter: metrics.Of(p.Kernel.Clock).Scope(),
		opts:  opts,
		hist:  metrics.NewHistogram(opts.HistMax),
	}
	if !opts.ChannelFaults.Zero() {
		s.plan = &s.opts.ChannelFaults
	}
	return s, nil
}

// roll decides which channel fault hits one frame on connection conn.
func (s *Server) roll(dir, cycle, conn, corr uint64) fault.Kind {
	if s.plan == nil {
		return fault.KindNone
	}
	return s.plan.Roll(dir, cycle, conn, corr)
}

// Name returns the served application's image name.
func (s *Server) Name() string { return s.proc.Image.Name }

// Process returns the enclave process behind the server.
func (s *Server) Process() *libos.Process { return s.proc }

// Stats returns the server's traffic account so far.
func (s *Server) Stats() Stats {
	m := s.meter
	st := Stats{
		Admitted:     m.Count(metrics.CntServRequests),
		Served:       m.Count(metrics.CntServReplies),
		Errors:       m.Count(metrics.CntServErrors),
		KeepAlives:   m.Count(metrics.CntServKeepAlives),
		Backpressure: m.Count(metrics.CntServBackpressure),
		Timeouts:     m.Count(metrics.CntServTimeouts),
		Resets:       m.Count(metrics.CntServResets),
		Corrupt:      m.Count(metrics.CntServCorrupt),
		Dropped:      m.Count(metrics.CntServDrops),
		IdlePolls:    m.Count(metrics.CntServIdlePolls),
	}
	st.Offered = st.Admitted + st.Backpressure
	return st
}

// Hist returns the per-request latency histogram (sojourn cycles of every
// successfully served request).
func (s *Server) Hist() *metrics.Histogram { return s.hist }

// Closed reports whether the server has stopped admitting traffic.
func (s *Server) Closed() bool { return s.closed }

// Close stops admission; the dispatch loop serves what is already queued
// and returns. Scheduled open-loop arrivals not yet admitted never are: the
// loop does not wait for them to come due.
func (s *Server) Close() { s.closed = true }

// Drain pauses the server for migration: no new arrival is admitted (due
// scheduled arrivals stay pending), no keep-alive is synthesized, and the
// dispatch loop returns once the already-admitted backlog is served — all
// WITHOUT closing the server. The host-side state (connections, histogram,
// remaining schedule) survives; Rebind attaches it to the adopted
// incarnation and admission resumes, with the arrivals that came due during
// the outage flooding in as the downtime burst a real migration causes.
func (s *Server) Drain() { s.draining = true }

// Draining reports whether a migration drain is in progress.
func (s *Server) Draining() bool { return s.draining }

// Partition severs the untrusted channel between the clients and this
// server until the given absolute cycle: requests vanish in transit and
// replies are lost (resetting their connections, so in-flight calls surface
// ErrConnReset), exactly as a fault-plan outage would — but driven by an
// external chaos schedule rather than per-frame rolls. Admission and the
// open-loop schedule keep running: a partition loses traffic, it does not
// pause it. A later Partition call with a smaller cycle heals early.
func (s *Server) Partition(until uint64) { s.partUntil = until }

// Partitioned reports whether the channel is severed at the given cycle.
func (s *Server) Partitioned(now uint64) bool { return now < s.partUntil }

// PendingSchedule reports how many open-loop arrivals have not yet been
// admitted, drawn or not — the traffic a tenant that never recovers from a
// crash would lose outright.
func (s *Server) PendingSchedule() int {
	if g := s.stream; g != nil {
		return g.n + g.ol.Requests - g.next
	}
	return 0
}

// Crash models the host machine dying mid-run: every admitted-but-unserved
// request — queued on a connection, or already popped for dispatch inside
// the dead enclave — is accounted as dropped, every connection resets (a
// blocking call in flight observes ErrConnReset), and the server enters the
// draining state so a restored incarnation can Rebind. The pending open-loop
// schedule survives: arrivals that come due during the outage flood in after
// recovery rather than silently vanishing. Returns the number of admitted
// requests the crash lost.
func (s *Server) Crash() uint64 {
	unsettled := func() uint64 {
		st := s.Stats()
		settled := st.Served + st.Errors + st.Timeouts + st.Dropped
		if st.Admitted > settled {
			return st.Admitted - settled
		}
		return 0
	}
	lost := unsettled() // queued + mid-dispatch at the instant of the crash
	for _, c := range s.conns {
		s.reset(c) // accounts the queued frames, bumps the incarnation
	}
	// Whatever the resets did not account — a request already popped for
	// dispatch when the machine died — is dropped too, so no admitted
	// request ever disappears from the books.
	if rem := unsettled(); rem > 0 {
		s.meter.Add(metrics.CntServDrops, rem)
	}
	s.fifoHead, s.fifoLen = 0, 0
	s.draining = true
	return lost
}

// Rebind attaches the server's host-side state to a new process incarnation
// (the adopted enclave on the destination machine) and resumes admission.
// Queued frames carry the frozen operation table's indexes, and open-loop
// arrivals still to be drawn resolve their names against it, so the new
// incarnation must register the same handler names in the same order;
// anything else is a protocol error. The destination machine must share the
// source's clock (in a fleet, all machines run under one sim.Clock):
// absolute arrival cycles keep their meaning only on that timeline, and the
// server's metrics scope belongs to that clock's registry.
func (s *Server) Rebind(p *libos.Process) error {
	if !s.draining {
		return fmt.Errorf("service: %s rebind without drain", s.Name())
	}
	if p.Kernel.Clock != s.clock {
		return fmt.Errorf("service: %s rebind onto a machine with another clock", s.Name())
	}
	if s.frozen {
		names := p.HandlerNames()
		if len(names) != len(s.opNames) {
			return fmt.Errorf("service: %s rebind with %d handlers, frozen table has %d",
				s.Name(), len(names), len(s.opNames))
		}
		for i, name := range names {
			if name != s.opNames[i] {
				return fmt.Errorf("service: %s rebind handler %d is %q, frozen table has %q",
					s.Name(), i, name, s.opNames[i])
			}
			h, ok := p.Handler(name)
			if !ok {
				return fmt.Errorf("service: %s rebind: handler %q not registered", s.Name(), name)
			}
			s.handlers[i] = h
		}
	}
	s.proc = p
	s.costs = p.Kernel.Costs
	s.draining = false
	return nil
}

// Dial attaches a new client connection.
func (s *Server) Dial() (*Conn, error) {
	if s.closed {
		return nil, &Error{Server: s.Name(), Err: ErrClosed}
	}
	c := &Conn{s: s, id: uint32(len(s.conns)), nextCorr: callCorr}
	s.conns = append(s.conns, c)
	return c, nil
}

// freezeOps resolves the process's registered handlers into the wire
// operation table. Called once, at the first traffic.
func (s *Server) freezeOps() error {
	if s.frozen {
		return nil
	}
	names := s.proc.HandlerNames()
	if len(names) > int(opUnknown) {
		return fmt.Errorf("service: %d handlers registered, wire op is one byte and %#x is reserved",
			len(names), opUnknown)
	}
	s.opNames = names
	s.handlers = make([]libos.Handler, len(names))
	for i, name := range names {
		h, _ := s.proc.Handler(name)
		s.handlers[i] = h
	}
	s.frozen = true
	return nil
}

// opUnknown is the wire op of an open-loop arrival whose operation the frozen
// table lacks; no handler has the index, so the server answers it with an
// unknown-operation error reply.
const opUnknown uint8 = 0xff

// opIndex resolves an operation name against the frozen table. The table
// holds a handful of names, so a scan costs less than hashing the name.
func (s *Server) opIndex(op string) (uint8, bool) {
	for i, name := range s.opNames {
		if name == op {
			return uint8(i), true
		}
	}
	return 0, false
}

// callCorr is the first correlation id of every connection's keep-alives and
// calls. Open-loop arrivals number each connection's frames from 0 as they
// are drawn, so the two ranges never meet.
const callCorr uint64 = 1 << 63

// ringFrames is how many open-loop arrivals one refill draws: enough that
// the refill loop's set-up is spread thin, few enough that a schedule of any
// length holds 2.5 KiB of frames.
const ringFrames = 64

// stream is an open-loop schedule drawn ringFrames arrivals at a time, in
// index order, from the state Preload fixed: the seeded random source, the
// arrival process, NextReq and the connections dialed so far. Every draw
// happens in the order an eager draw of the whole schedule would make it,
// so every frame is the frame that draw would have stored.
type stream struct {
	ring [ringFrames]Frame
	head int    // ring index of the next pending arrival
	n    int    // drawn arrivals not yet admitted, from head
	next int    // index of the next arrival to draw
	at   uint64 // scheduled cycle of the last draw
	// corr is each Preload connection's next open-loop correlation id; a
	// connection dialed later gets no open-loop arrival.
	corr []uint64
	r    sim.Rand
	ol   OpenLoop
}

// Preload sets up the open-loop arrival schedule: ol.Requests requests
// spread over the connections dialed so far, inter-arrival gaps drawn from
// ol.Arrivals, starting at the current cycle. It draws the first ringFrames
// arrivals at once and the rest during the run, ringFrames at a time
// whenever the drawn ones are all admitted, so its memory does not grow
// with ol.Requests. It refuses an operation the first draws name with
// ErrUnknownOp; a later arrival naming one is answered with an
// unknown-operation error reply. The loop then auto-closes once the
// schedule is drained. Preload can be called once, before the loop runs.
func (s *Server) Preload(ol OpenLoop) error {
	if s.stream != nil {
		return fmt.Errorf("service: %s already preloaded", s.Name())
	}
	if len(s.conns) == 0 {
		return fmt.Errorf("service: preload with no dialed connections")
	}
	if ol.Requests <= 0 || ol.Arrivals == nil {
		return fmt.Errorf("service: preload needs Requests > 0 and an arrival process")
	}
	if err := s.freezeOps(); err != nil {
		return err
	}
	if len(s.handlers) == 0 {
		return fmt.Errorf("service: preload with no registered handlers")
	}
	s.stream = &stream{at: s.clock.Cycles(), corr: make([]uint64, len(s.conns)), r: *sim.NewRand(ol.Seed), ol: ol}
	if op := s.refill(); op != "" {
		s.stream = nil
		return &Error{Server: s.Name(), Op: op, Err: ErrUnknownOp}
	}
	return nil
}

// refill draws the next arrivals into the spent ring and returns the first
// operation name the frozen table lacked ("" when every name resolved).
func (s *Server) refill() (unknown string) {
	g := s.stream
	n := min(ringFrames, g.ol.Requests-g.next)
	for k := 0; k < n; k++ {
		g.at += g.ol.Arrivals.NextGap(&g.r)
		op, arg := uint8(0), uint64(0)
		if g.ol.NextReq != nil {
			name, a := g.ol.NextReq(g.next+k, &g.r)
			idx, ok := s.opIndex(name)
			if !ok {
				idx = opUnknown
				if unknown == "" {
					unknown = name
				}
			}
			op, arg = idx, a
		} else {
			arg = g.r.Uint64()
		}
		// A connection's id is its index in s.conns.
		conn := g.r.Uint64n(uint64(len(g.corr)))
		corr := g.corr[conn]
		g.corr[conn]++
		arrive := g.at
		// A delay roll holds this frame (and, the channel being FIFO,
		// everything behind it) in transit for the plan's spike.
		if s.roll(dirDelay, g.at, conn, corr) == fault.KindDelay {
			arrive += s.plan.DelayCycles
		}
		// Field by field: a composite literal is built on the stack and
		// copied, and the copy's wide loads stall on its narrow stores.
		f := &g.ring[k]
		f.Kind, f.Op, f.ErrCode, f.Conn, f.Gen = FrameRequest, op, 0, uint32(conn), 0
		f.Corr, f.Arg, f.Arrive = corr, arg, arrive
	}
	g.head, g.n = 0, n
	g.next += n
	return unknown
}

// charge attributes service bookkeeping cycles.
func (s *Server) charge(n uint64) { s.clock.ChargeAs(sim.CatCompute, n) }

// push appends a frame to the dispatch ring, growing it when full. The
// ring's length is a power of two (16, doubled on each growth), so an index
// wraps with a mask rather than a division.
func (s *Server) push(f Frame) {
	if s.fifoLen == len(s.fifo) {
		grown := make([]Frame, max(16, 2*len(s.fifo)))
		for i := 0; i < s.fifoLen; i++ {
			grown[i] = s.fifo[(s.fifoHead+i)&(len(s.fifo)-1)]
		}
		s.fifo = grown
		s.fifoHead = 0
	}
	s.fifo[(s.fifoHead+s.fifoLen)&(len(s.fifo)-1)] = f
	s.fifoLen++
}

// pop removes the next live frame in admission order, skipping frames of
// reset incarnations (their queue slots were already released).
func (s *Server) pop() (Frame, bool) {
	for s.fifoLen > 0 {
		f := s.fifo[s.fifoHead]
		s.fifoHead = (s.fifoHead + 1) & (len(s.fifo) - 1)
		s.fifoLen--
		c := s.conns[f.Conn]
		if f.Gen != c.gen {
			continue // discarded by a reset; drop already accounted
		}
		c.n--
		return f, true
	}
	return Frame{}, false
}

// admit applies backpressure and queues one frame, returning ErrClosed or
// ErrBackpressure unwrapped when it refuses: enqueue wraps them for the
// client, and pump only counts an open-loop refusal. Keep-alive frames skip
// silently when the queue is full (a probe that cannot even be queued says
// nothing the full queue does not).
func (s *Server) admit(f Frame) error {
	c := s.conns[f.Conn]
	if s.closed {
		return ErrClosed
	}
	if c.n >= s.opts.QueueCap {
		if f.Kind == FrameKeepAlive {
			return nil
		}
		s.meter.Inc(metrics.CntServBackpressure)
		return ErrBackpressure
	}
	f.Gen = c.gen
	c.n++
	s.push(f)
	if f.Kind == FrameRequest {
		s.meter.Inc(metrics.CntServRequests)
	}
	return nil
}

// pump admits every due scheduled arrival and synthesizes keep-alives on
// idle connections (a rotating cursor checks a few connections per pump,
// so the sweep is O(1) amortized and deterministic).
func (s *Server) pump() {
	if s.draining {
		return // migration drain: nothing new is admitted, nothing probed
	}
	now := s.clock.Cycles()
	if g := s.stream; g != nil {
		for g.n > 0 && g.ring[g.head].Arrive <= now {
			f := g.ring[g.head]
			g.head++
			g.n--
			_ = s.admit(f) // backpressure on an open-loop arrival = counted drop
			if g.n == 0 && g.next < g.ol.Requests {
				s.refill()
			}
		}
	}
	if !s.sweepsKeepAlives() {
		return
	}
	for i := 0; i < kaSweep && i < len(s.conns); i++ {
		c := s.conns[s.kaCursor%len(s.conns)]
		s.kaCursor++
		if s.keepAliveDue(c, now) {
			c.lastAct = now // re-arm the idle timer at the probe
			corr := c.nextCorr
			c.nextCorr++
			_ = s.admit(Frame{Kind: FrameKeepAlive, Conn: c.id, Corr: corr, Arrive: now})
		}
	}
}

// kaSweep is how many connections one pump checks for keep-alives.
const kaSweep = 4

// sweepsKeepAlives reports whether pump checks connections for keep-alives.
func (s *Server) sweepsKeepAlives() bool {
	return s.opts.KeepAliveEvery != 0 && !s.closed && len(s.conns) > 0
}

// keepAliveDue reports whether c is owed a keep-alive probe at cycle now.
func (s *Server) keepAliveDue(c *Conn, now uint64) bool {
	return c.n == 0 && now-c.lastAct >= s.opts.KeepAliveEvery
}

// quietAt reports whether one pass of the loop at cycle now would admit
// nothing, serve nothing and not return — that is, only poll and yield. It
// reads the state pump, pop and drained read, and changes nothing.
func (s *Server) quietAt(now uint64) bool {
	if now >= s.quietBefore() {
		return false
	}
	if s.sweepsKeepAlives() {
		for i := 0; i < kaSweep && i < len(s.conns); i++ {
			if s.keepAliveDue(s.conns[(s.kaCursor+i)%len(s.conns)], now) {
				return false
			}
		}
	}
	return true
}

// quietBefore is the cycle from which a pass of the loop admits the next
// scheduled arrival, math.MaxUint64 when none is scheduled, and 0 when no
// pass is quiet whatever the cycle: the server is draining or closed, its
// dispatch ring holds frames, or its open-loop schedule is spent and the
// loop returns. The next arrival is always drawn: pump refills the schedule
// as it admits the last drawn one.
func (s *Server) quietBefore() uint64 {
	g := s.stream
	switch {
	case s.draining || s.closed || s.fifoLen > 0:
		return 0
	case g == nil:
		return math.MaxUint64
	case g.n > 0:
		return g.ring[g.head].Arrive
	}
	return 0
}

// idlePoll is the loop's idle branch, n times: count the polls and charge
// them.
func (s *Server) idlePoll(n uint64) {
	s.meter.Add(metrics.CntServIdlePolls, n)
	s.charge(n * s.costs.ServPoll)
}

// idleProbe is the hostos.IdleProbe a running loop publishes on its kernel
// process.
type idleProbe Server

// QuietAt implements hostos.IdleProbe.
func (p *idleProbe) QuietAt(now uint64) (uint64, bool) {
	s := (*Server)(p)
	return s.costs.ServPoll, s.parked && s.quietAt(now)
}

// QuietUntil implements hostos.IdleProbe: the next scheduled arrival and,
// with keep-alives, the first cycle at which any connection is owed one.
// One poll checks only the kaSweep connections at the cursor, so the
// keep-alive bound may come early: a run of polls ends there, and single
// polls carry on until the owed connection comes round.
func (p *idleProbe) QuietUntil() uint64 {
	s := (*Server)(p)
	if !s.parked {
		return 0
	}
	until := s.quietBefore()
	if until != 0 && s.sweepsKeepAlives() {
		for _, c := range s.conns {
			if c.n == 0 {
				until = min(until, c.lastAct+s.opts.KeepAliveEvery)
			}
		}
	}
	return until
}

// Poll implements hostos.IdleProbe: n quiet passes of the loop, each up to
// its idle yield. When a pass is quiet, pump only advances the keep-alive
// cursor, pop finds the ring empty and drained is false, so the cursor and
// the idle branch are all the passes change.
func (p *idleProbe) Poll(n uint64) {
	s := (*Server)(p)
	if s.sweepsKeepAlives() {
		s.kaCursor += int(n) * min(kaSweep, len(s.conns))
	}
	s.idlePoll(n)
}

// drained reports whether the loop has nothing left to do and never will:
// the ring is empty, and the server is draining (its pending schedule
// survives for a Rebind), closed (its pending schedule is never admitted),
// or a pure open-loop server whose schedule is spent.
func (s *Server) drained() bool {
	if s.fifoLen > 0 {
		return false
	}
	return s.draining || s.closed || s.stream != nil && s.PendingSchedule() == 0
}

// Loop is the dispatch loop, run as the enclave application body. It
// returns when the server is drained (see drained); until then it serves
// admitted frames in order and yields (or polls) when nothing is due.
//
// While it runs, the loop's probe is published on its kernel process, so
// the scheduler can account the polls of a loop parked in Idle in place.
func (s *Server) Loop(ctx *core.Context) {
	if err := s.freezeOps(); err != nil {
		panic(err)
	}
	proc := s.proc.Proc
	proc.Idle = (*idleProbe)(s)
	defer func() { proc.Idle = nil }()
	s.parked = false
	for {
		s.pump()
		f, ok := s.pop()
		if !ok {
			if s.drained() {
				if !s.draining {
					s.closed = true
				}
				return
			}
			s.idlePoll(1)
			if s.Idle != nil {
				s.parked = true
				s.Idle()
				s.parked = false
			}
			continue
		}
		s.serve(ctx, f)
	}
}

// corruptByte picks the deterministic in-flight byte flip position.
func corruptByte(f *Frame, cycle uint64) int {
	return int((f.Corr ^ cycle) % FrameBytes)
}

// cross carries frame f of connection c over the untrusted channel in
// direction dir (dirRequest or dirReply) and returns the cycle it crossed
// at; ok is false when nothing arrives. On arrival f holds the wire fields
// the far side decoded, its channel metadata (Gen, Arrive) kept. A frame
// that fails its checksum resets the connection. A frame lost in transit,
// to a partition or a KindUnavail roll, is dropped; a lost reply also
// resets the connection, since the client cannot tell it from a dead server
// and its correlation state is no longer trustworthy either way. The plan
// is not rolled while the channel is severed. Only a roll that mangles
// bytes pays for the encode/checksum/decode round trip: a pristine frame
// decodes to exactly the wire fields it left with.
func (s *Server) cross(dir uint64, c *Conn, f *Frame) (now uint64, ok bool) {
	s.charge(s.costs.ServFrame)
	now = s.clock.Cycles()
	kind := fault.KindUnavail
	if now >= s.partUntil {
		kind = s.roll(dir, now, uint64(c.id), f.Corr)
	}
	switch kind {
	case fault.KindCorrupt, fault.KindTruncate:
		f.EncodeTo(s.scratch[:])
		s.scratch[corruptByte(f, now)] ^= 0xff
		wf, err := DecodeFrame(s.scratch[:])
		if err != nil {
			s.meter.Inc(metrics.CntServCorrupt)
			s.reset(c)
			return now, false
		}
		wf.Gen, wf.Arrive = f.Gen, f.Arrive
		*f = wf
	case fault.KindUnavail:
		s.meter.Inc(metrics.CntServDrops)
		if dir == dirReply {
			s.reset(c)
		}
		return now, false
	}
	return now, true
}

// serve carries one frame across the untrusted channel, runs its handler,
// and delivers the reply.
func (s *Server) serve(ctx *core.Context, f Frame) {
	c := s.conns[f.Conn]
	s.charge(s.costs.ServDispatch)
	now, ok := s.cross(dirRequest, c, &f)
	if !ok {
		return
	}

	if f.Kind == FrameKeepAlive {
		s.deliver(c, Frame{Kind: FrameKeepAlive, Conn: c.id, Gen: f.Gen, Corr: f.Corr, Arrive: f.Arrive})
		return
	}

	if s.opts.Deadline > 0 && now-f.Arrive > s.opts.Deadline {
		s.meter.Inc(metrics.CntServTimeouts)
		s.deliver(c, Frame{Kind: FrameReply, ErrCode: wireTimeout, Conn: c.id, Gen: f.Gen, Corr: f.Corr, Arrive: f.Arrive})
		return
	}

	var reply Frame
	if int(f.Op) >= len(s.handlers) {
		reply = Frame{Kind: FrameReply, ErrCode: wireUnknownOp}
	} else {
		ret, herr := s.handlers[f.Op](ctx, f.Arg)
		reply = Frame{Kind: FrameReply, ErrCode: encodeErr(herr), Arg: ret}
	}
	reply.Conn, reply.Gen, reply.Corr, reply.Arrive = c.id, f.Gen, f.Corr, f.Arrive
	s.deliver(c, reply)
}

// deliver carries a reply (or keep-alive echo) back across the channel and
// hands it to the client.
func (s *Server) deliver(c *Conn, f Frame) {
	now, ok := s.cross(dirReply, c, &f)
	if !ok {
		return
	}
	if f.Gen != c.gen {
		return // connection reset while the reply was in flight
	}
	c.lastAct = now
	switch f.Kind {
	case FrameKeepAlive:
		s.meter.Inc(metrics.CntServKeepAlives)
		return
	case FrameReply:
		if f.ErrCode == wireOK {
			s.hist.Record(now - f.Arrive)
			s.meter.Inc(metrics.CntServReplies)
		} else {
			s.meter.Inc(metrics.CntServErrors)
		}
		if c.awaiting && c.await == f.Corr {
			c.reply = f
			c.hasReply = true
			c.awaiting = false
		}
	}
}

// reset tears down a connection incarnation: queued frames are discarded
// (their slots released), the incarnation counter bumps, and any blocking
// call observes the bump as ErrConnReset.
func (s *Server) reset(c *Conn) {
	dropped := uint64(c.n)
	c.n = 0
	c.gen++
	c.awaiting = false
	c.hasReply = false
	c.lastAct = s.clock.Cycles()
	s.meter.Inc(metrics.CntServResets)
	s.meter.Add(metrics.CntServDrops, dropped)
}

// ID returns the connection's id.
func (c *Conn) ID() uint32 { return c.id }

// Gen returns the connection's incarnation counter; a change between
// submit and reply means the connection was reset in between.
func (c *Conn) Gen() uint32 { return c.gen }

// Resets reports how many times the connection was reset: every reset, and
// nothing else, bumps its incarnation counter.
func (c *Conn) Resets() uint64 { return uint64(c.gen) }

// Abort is the client-initiated reset: a caller that gave up on the
// connection (e.g. a call timeout) tears it down exactly as a corrupted
// frame would, discarding its queued requests.
func (c *Conn) Abort() { c.s.reset(c) }

// Options returns the server's effective options.
func (s *Server) Options() Options { return s.opts }

// Send enqueues a fire-and-forget request. The reply (if any) updates the
// server's statistics but is not delivered anywhere.
func (c *Conn) Send(op string, arg uint64) error {
	_, _, err := c.enqueue(op, arg)
	return err
}

// Submit enqueues a request and arms the connection's reply mailbox: the
// correlated reply (once the dispatch loop serves it) lands in TakeReply.
// One call may be outstanding per connection.
func (c *Conn) Submit(op string, arg uint64) (corr uint64, gen uint32, err error) {
	corr, gen, err = c.enqueue(op, arg)
	if err == nil {
		c.await = corr
		c.awaiting = true
		c.hasReply = false
	}
	return corr, gen, err
}

// Ready reports whether the awaited reply for corr has landed in the
// mailbox (a cheap peek for blocking callers driving the scheduler).
func (c *Conn) Ready(corr uint64) bool { return c.hasReply && c.reply.Corr == corr }

// TakeReply collects the awaited reply, clearing the mailbox.
func (c *Conn) TakeReply(corr uint64) (Frame, bool) {
	if !c.hasReply || c.reply.Corr != corr {
		return Frame{}, false
	}
	c.hasReply = false
	return c.reply, true
}

// enqueue is the client-side admission path: resolve the operation, charge
// the frame encode, and admit against the bounded queue.
func (c *Conn) enqueue(op string, arg uint64) (uint64, uint32, error) {
	s := c.s
	if err := s.freezeOps(); err != nil {
		return 0, c.gen, err
	}
	idx, ok := s.opIndex(op)
	if !ok {
		return 0, c.gen, &Error{Server: s.Name(), Conn: c.id, Op: op, Err: ErrUnknownOp}
	}
	s.charge(s.costs.ServFrame)
	corr := c.nextCorr
	c.nextCorr++
	f := Frame{Kind: FrameRequest, Op: idx, Conn: c.id, Corr: corr, Arg: arg, Arrive: s.clock.Cycles()}
	if err := s.admit(f); err != nil {
		return corr, c.gen, &Error{Server: s.Name(), Conn: c.id, Corr: corr, Op: op, Err: err}
	}
	return corr, c.gen, nil
}
