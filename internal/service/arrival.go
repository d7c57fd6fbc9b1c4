package service

import (
	"fmt"
	"math"

	"autarky/internal/sim"
)

// ArrivalProcess generates the inter-arrival gaps (in cycles) of an
// open-loop client population. Open-loop means arrivals do not wait for
// completions: when the server falls behind, requests pile into the bounded
// connection queues and the tail — not the mean — tells the story. Every
// gap is drawn from the cell's seeded sim.Rand, so a schedule is a pure
// function of (process, request count, seed).
type ArrivalProcess interface {
	// Name labels the process in reports.
	Name() string
	// NextGap draws the cycles between one arrival and the next.
	NextGap(r *sim.Rand) uint64
}

// Poisson is the memoryless arrival process: exponential inter-arrival
// times with the given mean, the classic open-loop load model.
type Poisson struct {
	MeanGap float64 // mean cycles between arrivals
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// NextGap draws an exponential gap via inversion. math.Log is exact per
// (platform, toolchain), so schedules stay byte-identical across runs and
// worker counts.
func (p Poisson) NextGap(r *sim.Rand) uint64 {
	u := r.Float64()
	return uint64(-p.MeanGap * math.Log(1-u))
}

// Bursty is an on/off arrival process: requests arrive back-to-back in
// bursts of fixed size, with exponential silences between bursts sized so
// the long-run mean gap matches MeanGap. Same offered load as Poisson,
// far worse instantaneous queue depth — the tail-latency stressor.
type Bursty struct {
	MeanGap float64 // long-run mean cycles between arrivals
	Burst   int     // requests per burst (>= 1)

	// pos tracks the position within the current burst; Bursty is
	// therefore stateful and must be used via pointer.
	pos int
}

// Name implements ArrivalProcess.
func (b Bursty) Name() string { return fmt.Sprintf("bursty/%d", b.Burst) }

// NextGap returns 0 inside a burst and an exponential inter-burst silence
// (mean MeanGap*Burst) at each burst boundary.
func (b *Bursty) NextGap(r *sim.Rand) uint64 {
	burst := b.Burst
	if burst < 1 {
		burst = 1
	}
	b.pos++
	if b.pos < burst {
		return 0
	}
	b.pos = 0
	u := r.Float64()
	return uint64(-b.MeanGap * float64(burst) * math.Log(1-u))
}

// OpenLoop describes one server's open-loop request schedule: Requests
// arrivals spread over the connections dialed before Server.Preload, with
// gaps drawn from Arrivals and ops and arguments chosen by NextReq, all
// from one source seeded by Seed. The server draws the schedule as it runs,
// up to 64 arrivals ahead of the clock, in index order, so the schedule
// is the same however the run interleaves with other servers; Arrivals and
// NextReq must therefore belong to this schedule alone.
//
// Each connection numbers its open-loop arrivals' correlation ids from 0;
// its keep-alives and calls (Conn.Send, Conn.Submit) take theirs from 2^63
// up, so no two frames of a connection share an id.
type OpenLoop struct {
	Arrivals ArrivalProcess
	Requests int
	Seed     uint64
	// NextReq chooses the i-th request's operation and argument; nil sends
	// the first registered operation with a uniform random argument. It is
	// called once per arrival, in index order, ahead of that arrival during
	// the run, so it may depend only on (i, r) and on state it owns. An
	// operation no handler serves fails Preload when it is among the first
	// draws and is answered with an ErrUnknownOp reply later.
	NextReq func(i int, r *sim.Rand) (op string, arg uint64)
}
