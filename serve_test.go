package autarky

import (
	"errors"
	"testing"
)

func serveImage(name string) AppImage {
	return AppImage{
		Name:      name,
		Libraries: []Library{{Name: "lib" + name + ".so", Pages: 2}},
		HeapPages: 16,
	}
}

func TestServeCallRoundTrip(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	srv, err := m.Serve(serveImage("kv"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("get", func(ctx *Context, arg uint64) (uint64, error) {
			if arg == 0xBAD {
				return 0, errors.New("no such key")
			}
			return arg + 1, nil
		}))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	c, err := srv.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	v, err := c.Call("get", 41)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if v != 42 {
		t.Fatalf("call = %d, want 42", v)
	}
	if _, err := c.Call("get", 0xBAD); !errors.Is(err, ErrRemoteFault) {
		t.Fatalf("remote handler error: got %v, want ErrRemoteFault", err)
	}
	var se *ServiceError
	if _, err := c.Call("nope", 1); !errors.Is(err, ErrUnknownOp) || !errors.As(err, &se) || se.Op != "nope" {
		t.Fatalf("unknown op: got %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Send("get", 1); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("send after close: got %v, want ErrServerClosed", err)
	}
	if got := srv.Stats().Served; got != 1 {
		t.Fatalf("served = %d, want 1", got)
	}
	if lat := srv.Latency(); lat.Count != 1 || lat.P50 == 0 {
		t.Fatalf("latency = %+v, want one nonzero sample", lat)
	}
}

// TestServeMultiTenant pins the scheduler integration: a blocking Call on
// one server makes progress while another idle server co-resides on the
// machine, because an idle dispatch loop yields its slice.
func TestServeMultiTenant(t *testing.T) {
	m := NewMachine(WithEPCFrames(1024), WithQuantum(50_000))
	echo := func(ctx *Context, arg uint64) (uint64, error) { return arg * 2, nil }
	a, err := m.Serve(serveImage("alpha"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("dbl", echo))
	if err != nil {
		t.Fatalf("serve alpha: %v", err)
	}
	b, err := m.Serve(serveImage("beta"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("dbl", echo))
	if err != nil {
		t.Fatalf("serve beta: %v", err)
	}
	ca, _ := a.Dial()
	cb, _ := b.Dial()
	for i := uint64(1); i <= 8; i++ {
		va, err := ca.Call("dbl", i)
		if err != nil {
			t.Fatalf("alpha call %d: %v", i, err)
		}
		vb, err := cb.Call("dbl", i)
		if err != nil {
			t.Fatalf("beta call %d: %v", i, err)
		}
		if va != 2*i || vb != 2*i {
			t.Fatalf("call %d = %d/%d, want %d", i, va, vb, 2*i)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	acc := m.Accounting()
	if err := acc.Check(); err != nil {
		t.Fatalf("accounting: %v", err)
	}
}

// TestServeCallTimeoutResetsConnection pins the client-side liveness bound:
// with the channel losing every request, a blocking Call must give up after
// CallTimeout, abort the connection, and surface ErrConnReset — it may
// never hang the machine.
func TestServeCallTimeoutResetsConnection(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	srv, err := m.Serve(serveImage("dead"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("op", func(ctx *Context, arg uint64) (uint64, error) { return arg, nil }),
		WithChannelFaults(FaultPlan{Seed: 7, PUnavail: 1}),
		WithCallTimeout(80_000))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	c, _ := srv.Dial()
	start := m.Cycles()
	_, err = c.Call("op", 1)
	if !errors.Is(err, ErrConnReset) {
		t.Fatalf("call over a dead channel: got %v, want ErrConnReset", err)
	}
	if c.Resets() == 0 {
		t.Fatalf("timeout must abort (reset) the connection")
	}
	if waited := m.Cycles() - start; waited < 80_000 {
		t.Fatalf("gave up after %d cycles, before the 80k call timeout", waited)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnCallZeroAlloc: a warm blocking Call allocates nothing. The call
// hands the scheduler a stop predicate that outlives the call's stack, so a
// closure over the call's locals would escape to the heap on every call.
func TestConnCallZeroAlloc(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	srv, err := m.Serve(serveImage("kv"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("get", func(ctx *Context, arg uint64) (uint64, error) { return arg + 1, nil }))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	c, err := srv.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	call := func() {
		if v, err := c.Call("get", 41); err != nil || v != 42 {
			t.Fatalf("call = %d, %v; want 42", v, err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("blocking Call allocates %.2f/op, want 0", allocs)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeOpenLoopDrain drives the facade's open-loop path end to end.
func TestServeOpenLoopDrain(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	srv, err := m.Serve(serveImage("ol"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("work", func(ctx *Context, arg uint64) (uint64, error) { return arg, nil }))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Dial(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.OpenLoop(OpenLoop{Arrivals: Poisson{MeanGap: 10_000}, Requests: 200, Seed: 42}); err != nil {
		t.Fatalf("open loop: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := srv.Stats()
	if st.Offered != 200 || st.Served != st.Admitted {
		t.Fatalf("stats = %+v, want 200 offered all served", st)
	}
	if lat := srv.Latency(); lat.Count != st.Served || lat.P999 < lat.P50 {
		t.Fatalf("latency summary inconsistent: %+v", lat)
	}
}

// TestServeWireTaxonomyRoundTrip pins the satellite requirement that the
// existing taxonomy sentinels survive the wire: a handler failing with
// ErrQuotaExceeded must surface to the caller as ErrQuotaExceeded.
func TestServeWireTaxonomyRoundTrip(t *testing.T) {
	m := NewMachine(WithEPCFrames(512))
	srv, err := m.Serve(serveImage("quota"), Config{SelfPaging: true, Policy: PolicyPinAll},
		WithHandler("grow", func(ctx *Context, arg uint64) (uint64, error) {
			return 0, ErrQuotaExceeded
		}))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	c, _ := srv.Dial()
	if _, err := c.Call("grow", 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota error across the wire: got %v, want ErrQuotaExceeded", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
