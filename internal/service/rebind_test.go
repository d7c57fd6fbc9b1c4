package service

import (
	"errors"
	"strings"
	"testing"

	"autarky/internal/core"
	"autarky/internal/libos"
)

// TestDrainRebindResumesService exercises the migration-facing server
// lifecycle: Drain pauses admission without closing, the dispatch loop
// returns once the backlog is served, Rebind attaches the surviving
// host-side state to a new incarnation, and traffic then flows against
// the new process's handlers.
func TestDrainRebindResumesService(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, err := New(p, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if s.Process() != p {
		t.Fatal("Process() does not return the served incarnation")
	}
	c, err := s.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Send("echo", 1); err != nil {
		t.Fatalf("send: %v", err)
	}

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if s.Closed() {
		t.Fatal("Drain must not close the server")
	}
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("drain loop: %v", err)
	}
	if s.Stats().Served != 1 {
		t.Fatalf("backlog not served before drain returned: %+v", s.Stats())
	}

	// The "destination": a fresh incarnation with the same handler table,
	// as Adopt produces, on the same clock.
	p2 := nextIncarnation(t, p, 1)
	register(p2)
	if err := s.Rebind(p2); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if s.Draining() {
		t.Fatal("rebind must resume admission")
	}
	if s.Process() != p2 {
		t.Fatal("rebind did not swap the incarnation")
	}

	corr, _, err := c.Submit("echo", 41)
	if err != nil {
		t.Fatalf("submit after rebind: %v", err)
	}
	if c.Ready(corr) {
		t.Fatal("reply ready before the loop ran")
	}
	s.Close()
	if err := p2.Run(s.Loop); err != nil {
		t.Fatalf("run after rebind: %v", err)
	}
	if !c.Ready(corr) {
		t.Fatal("reply not ready after serving")
	}
	f, ok := c.TakeReply(corr)
	if !ok || f.Arg != 42 {
		t.Fatalf("reply = %+v ok=%v, want Arg 42", f, ok)
	}
}

// TestRebindMisuse pins the rebind misuse taxonomy: rebinding without a
// drain, with a different handler count, with a renamed handler (the wire
// op table was frozen into every queued frame) or onto a machine with
// another clock (the schedule's arrival cycles and the server's metrics
// scope belong to this one) is refused, each for its own reason.
func TestRebindMisuse(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{})
	c, _ := s.Dial()
	if err := c.Send("echo", 1); err != nil { // freezes the op table
		t.Fatalf("send: %v", err)
	}
	refused := func(q *libos.Process, reason string) {
		t.Helper()
		if err := s.Rebind(q); err == nil || !strings.Contains(err.Error(), reason) {
			t.Fatalf("rebind error = %v, want one saying %q", err, reason)
		}
	}

	p2 := nextIncarnation(t, p, 1)
	register(p2)
	refused(p2, "without drain")

	s.Drain()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("drain loop: %v", err)
	}

	refused(nextIncarnation(t, p, 2), "with 0 handlers")
	renamed := nextIncarnation(t, p, 3)
	renamed.Handle("notecho", func(ctx *core.Context, arg uint64) (uint64, error) {
		return arg, nil
	})
	refused(renamed, `is "notecho"`)
	elsewhere, _ := newTestProc(t)
	register(elsewhere)
	refused(elsewhere, "another clock")
	if err := s.Rebind(p2); err != nil {
		t.Fatalf("matching rebind refused: %v", err)
	}
}

// TestConnAbortAndAccessors covers the client-initiated reset and the
// small introspection surface the fleet experiments rely on.
func TestConnAbortAndAccessors(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{QueueCap: 7})
	if s.Options().QueueCap != 7 {
		t.Fatalf("Options().QueueCap = %d, want 7", s.Options().QueueCap)
	}
	c0, _ := s.Dial()
	c1, _ := s.Dial()
	if c0.ID() != 0 || c1.ID() != 1 {
		t.Fatalf("conn ids = %d, %d, want 0, 1", c0.ID(), c1.ID())
	}

	corr, gen, err := c0.Submit("echo", 5)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	c0.Abort() // caller gave up: same teardown as a corrupted frame
	if c0.Resets() != 1 {
		t.Fatalf("Resets() = %d, want 1", c0.Resets())
	}
	if c0.Gen() == gen {
		t.Fatal("abort did not bump the incarnation counter")
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, ok := c0.TakeReply(corr); ok {
		t.Fatal("aborted request still delivered a reply")
	}
	if s.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (the aborted request)", s.Stats().Dropped)
	}

	var se *Error
	if _, err := s.Dial(); !errors.As(err, &se) || !errors.Is(err, ErrClosed) {
		t.Fatalf("dial on closed server: %v", err)
	}
}
