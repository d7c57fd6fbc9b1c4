package service

import (
	"testing"

	"autarky/internal/core"
	"autarky/internal/sim"
)

// TestCrashBooksUnsettledExactlyOnce: a crash accounts every admitted-but-
// unserved request as dropped exactly once — the connection resets cover
// the queued frames, and the remainder sweep covers a request already
// popped for dispatch inside the dead enclave. A second crash finds clean
// books and loses nothing. After Rebind onto a fresh incarnation the same
// server serves again.
func TestCrashBooksUnsettledExactlyOnce(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, err := New(p, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	c0, _ := s.Dial()
	c1, _ := s.Dial()
	for _, arg := range []uint64{1, 2} {
		if err := c0.Send("echo", arg); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c1.Send("echo", 3); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Model a request mid-dispatch at the instant of the crash: popped off
	// the ring (and off its connection's queue), but never served.
	if _, ok := s.pop(); !ok {
		t.Fatal("nothing to pop")
	}

	lost := s.Crash()
	if lost != 3 {
		t.Fatalf("crash lost %d, want 3", lost)
	}
	st := s.Stats()
	if st.Dropped != 3 {
		t.Fatalf("dropped %d, want 3 (2 queued + 1 mid-dispatch)", st.Dropped)
	}
	if st.Resets != 2 {
		t.Fatalf("resets %d, want one per connection", st.Resets)
	}
	if settled := st.Served + st.Errors + st.Timeouts + st.Dropped; settled != st.Admitted {
		t.Fatalf("books off after crash: admitted %d settled %d", st.Admitted, settled)
	}
	if !s.Draining() {
		t.Fatal("crashed server not draining")
	}

	// Crashing the wreck again loses nothing and books nothing twice.
	if again := s.Crash(); again != 0 {
		t.Fatalf("second crash lost %d, want 0", again)
	}
	if got := s.Stats().Dropped; got != 3 {
		t.Fatalf("second crash moved the drop count to %d", got)
	}

	// Restore: a fresh incarnation on the same host, with the same frozen
	// operation table, rebinds and the surviving connections serve new
	// traffic.
	p2 := nextIncarnation(t, p, 1)
	register(p2)
	if err := s.Rebind(p2); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	corr, gen, err := c0.Submit("echo", 41)
	if err != nil {
		t.Fatalf("submit after rebind: %v", err)
	}
	s.Close()
	if err := p2.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, ok := c0.TakeReply(corr)
	if !ok || f.Arg != 42 || f.ErrCode != wireOK {
		t.Fatalf("reply after rebind = %+v ok=%v, want Arg 42", f, ok)
	}
	if c0.Gen() != gen {
		t.Fatal("connection reset during a clean post-rebind exchange")
	}
}

// TestPartitionSeversRequestAndReplyLegs: while the channel is severed a
// request vanishes in transit without touching the connection; a reply lost
// on the way back tears the connection down (the client cannot tell a lost
// reply from a dead server); and once the window expires the channel heals.
func TestPartitionSeversRequestAndReplyLegs(t *testing.T) {
	p, clock := newTestProc(t)
	register(p)
	var s *Server
	// "sever" partitions the channel from inside the handler, after the
	// request leg already crossed — so the loss lands on the reply leg.
	p.Handle("sever", func(ctx *core.Context, arg uint64) (uint64, error) {
		s.Partition(clock.Cycles() + arg)
		return 0, nil
	})
	s, err := New(p, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	c, _ := s.Dial()

	// Request leg: the queued request is swallowed in transit.
	s.Partition(clock.Cycles() + 1_000_000)
	if !s.Partitioned(clock.Cycles()) {
		t.Fatal("partition not visible")
	}
	if err := c.Send("echo", 1); err != nil {
		t.Fatalf("send: %v", err)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := s.Stats()
	if st.Dropped != 1 || st.Served != 0 {
		t.Fatalf("request leg: dropped %d served %d, want 1/0", st.Dropped, st.Served)
	}
	if c.Resets() != 0 {
		t.Fatal("request-leg loss must not reset the connection")
	}

	// Heal: outlive the window and the same connection serves. (Loop
	// auto-closed on drain; reopen the internal gate for the next phase.)
	clock.ChargeAs(sim.CatCompute, 2_000_000)
	s.closed = false
	if s.Partitioned(clock.Cycles()) {
		t.Fatal("partition outlived its window")
	}
	corr, gen, err := c.Submit("echo", 41)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	if f, ok := c.TakeReply(corr); !ok || f.Arg != 42 {
		t.Fatalf("healed exchange = %+v ok=%v, want Arg 42", f, ok)
	}
	if c.Gen() != gen {
		t.Fatal("healed exchange reset the connection")
	}

	// Reply leg: the handler severs the channel mid-dispatch, so the reply
	// is lost and the connection torn down.
	s.closed = false
	gen0 := c.Gen()
	if err := c.Send("sever", 500_000); err != nil {
		t.Fatalf("send: %v", err)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	st = s.Stats()
	if st.Dropped != 2 {
		t.Fatalf("reply leg: dropped %d, want 2 total", st.Dropped)
	}
	if c.Resets() != 1 || c.Gen() != gen0+1 {
		t.Fatalf("reply-leg loss: resets %d gen %d→%d, want a teardown", c.Resets(), gen0, c.Gen())
	}
	if settled := st.Served + st.Errors + st.Timeouts + st.Dropped; settled != st.Admitted {
		t.Fatalf("books off: admitted %d settled %d", st.Admitted, settled)
	}
}
