package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"autarky"
	"autarky/internal/hostos"
	"autarky/internal/pagestore"
)

// spanName names a traced boundary. Spans are recorded only from this
// package, around the calls the benchmark makes into each layer, so the
// program under test is unchanged by tracing.
type spanName uint8

const (
	spSetup spanName = iota
	spNewMachine
	spNewFleet
	spLoad
	spDial
	spPreload
	spAttach
	spRun
	spHandler
	spEvict
	spFetch
	spEvictBatch
	spFetchBatch
	spDrop
	spReport
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSetup:      "setup",
	spNewMachine: "facade.new_machine",
	spNewFleet:   "facade.new_fleet",
	spLoad:       "libos.load",
	spDial:       "service.dial",
	spPreload:    "service.preload",
	spAttach:     "chaos.attach",
	spRun:        "run",
	spHandler:    "core.handler",
	spEvict:      "pagestore.evict",
	spFetch:      "pagestore.fetch",
	spEvictBatch: "pagestore.evict_batch",
	spFetchBatch: "pagestore.fetch_batch",
	spDrop:       "pagestore.drop",
	spReport:     "report",
}

// span is one traced interval. Times are host nanoseconds since the tracer
// was created.
type span struct {
	name   spanName
	parent int32  // index of the span that caused this one; -1 at top level
	id     uint64 // request id (tenant<<24 | request index); 0 outside requests
	start  int64
	end    int64
	// off is the time a core.handler span's task sat parked by the machine
	// scheduler (preempted mid-request while other tenants ran). Excluding
	// it keeps handler spans disjoint, so self times add up to the run span.
	off      int64
	parkedAt int64 // start of the current park
}

// tracer keeps spans in one preallocated slice. Every method is a no-op on
// a nil tracer, which is how untraced reps run. The simulation runs one
// task goroutine at a time, handing off through channels, so the tracer
// needs no locking.
type tracer struct {
	origin  time.Time
	spans   []span
	cur     int32 // the innermost open span opened by open, or -1
	running int32 // the core.handler span on the CPU, or -1
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity), cur: -1, running: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(name spanName, parent int32, id uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

// open starts a span inside the innermost open one (a top-level phase when
// none is open) and makes it the innermost.
func (t *tracer) open(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.cur = t.begin(name, t.cur, 0)
	return t.cur
}

// close ends a span started by open.
func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.end(i)
	t.cur = t.spans[i].parent
}

// call starts a leaf span caused by whatever is on the CPU: the running
// handler (inheriting its request id), else the innermost open span. End it
// with end.
func (t *tracer) call(name spanName) int32 {
	if t == nil {
		return -1
	}
	if h := t.running; h >= 0 {
		return t.begin(name, h, t.spans[h].id)
	}
	return t.begin(name, t.cur, 0)
}

func (t *tracer) enterHandler(id uint64) int32 {
	if t == nil {
		return -1
	}
	t.running = t.begin(spHandler, t.cur, id)
	return t.running
}

func (t *tracer) exitHandler(i int32) {
	if t == nil {
		return
	}
	t.end(i)
	t.running = -1
}

// selfTimes sums each span name's self time: its duration, minus the time
// it sat parked, minus the on-CPU time of its children. runTree is the self
// time of every span under a run span, which must add up to the run spans.
func (t *tracer) selfTimes() (self [numSpanNames]int64, runTree int64) {
	childTime := make([]int64, len(t.spans))
	root := make([]int32, len(t.spans))
	for i, s := range t.spans {
		root[i] = int32(i)
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start - s.off
			root[i] = root[s.parent] // parents precede their children
		}
	}
	for i, s := range t.spans {
		ns := s.end - s.start - s.off - childTime[i]
		self[s.name] += ns
		if t.spans[root[i]].name == spRun {
			runTree += ns
		}
	}
	return self, runTree
}

// totals sums each span name's on-CPU duration and counts its spans.
func (t *tracer) totals() (dur [numSpanNames]int64, n [numSpanNames]int) {
	for _, s := range t.spans {
		dur[s.name] += s.end - s.start - s.off
		n[s.name]++
	}
	return dur, n
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"spans\":[")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start\":%d,\"end\":%d,\"off\":%d,\"parent\":%d,\"id\":%d}",
			spanNames[s.name], s.start, s.end, s.off, s.parent, s.id)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// preemptTap wraps a kernel's scheduler upcall. OnPreempt runs on the
// preempted task's goroutine and returns only when the task is dispatched
// again, so the interval in between is time the running handler spent off
// the CPU.
type preemptTap struct {
	inner hostos.Preemptor
	tr    *tracer
}

func (p preemptTap) OnPreempt(k *hostos.Kernel, proc *hostos.Proc) {
	t := p.tr
	h := t.running
	if h >= 0 {
		t.spans[h].parkedAt = t.now()
		t.running = -1
	}
	p.inner.OnPreempt(k, proc)
	if h >= 0 {
		s := &t.spans[h]
		s.off += t.now() - s.parkedAt
		t.running = h
	}
}

// tapPreemptions installs the tap on a kernel whose scheduler exists.
func tapPreemptions(k *hostos.Kernel, tr *tracer) {
	if tr != nil && k.Preemptor != nil {
		k.Preemptor = preemptTap{inner: k.Preemptor, tr: tr}
	}
}

// backendCounts tallies the sealed blobs crossing a machine's outermost
// paging backend.
type backendCounts struct {
	evicts, fetches, bytes uint64
}

// countingBackend is a pass-through PagingBackend installed on top of a
// machine's stack before its first enclave loads: it counts every blob and
// ciphertext byte, and traces each call when a tracer is set.
type countingBackend struct {
	inner autarky.PagingBackend
	tr    *tracer
	n     *backendCounts
}

func (b *countingBackend) Name() string { return b.inner.Name() }

func (b *countingBackend) Evict(enclaveID uint64, va autarky.VAddr, blob pagestore.Blob) error {
	b.n.evicts++
	b.n.bytes += uint64(len(blob.Ciphertext))
	sp := b.tr.call(spEvict)
	err := b.inner.Evict(enclaveID, va, blob)
	b.tr.end(sp)
	return err
}

func (b *countingBackend) Fetch(enclaveID uint64, va autarky.VAddr) (pagestore.Blob, error) {
	sp := b.tr.call(spFetch)
	blob, err := b.inner.Fetch(enclaveID, va)
	b.tr.end(sp)
	if err == nil {
		b.n.fetches++
		b.n.bytes += uint64(len(blob.Ciphertext))
	}
	return blob, err
}

func (b *countingBackend) Drop(enclaveID uint64, va autarky.VAddr) error {
	sp := b.tr.call(spDrop)
	err := b.inner.Drop(enclaveID, va)
	b.tr.end(sp)
	return err
}

func (b *countingBackend) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	b.n.evicts += uint64(len(pages))
	for _, pb := range pages {
		b.n.bytes += uint64(len(pb.Blob.Ciphertext))
	}
	sp := b.tr.call(spEvictBatch)
	err := b.inner.EvictBatch(enclaveID, pages)
	b.tr.end(sp)
	return err
}

func (b *countingBackend) FetchBatch(enclaveID uint64, pages []autarky.VAddr, out []pagestore.Blob) error {
	sp := b.tr.call(spFetchBatch)
	err := b.inner.FetchBatch(enclaveID, pages, out)
	b.tr.end(sp)
	if err == nil {
		b.n.fetches += uint64(len(pages))
		for i := range pages {
			b.n.bytes += uint64(len(out[i].Ciphertext))
		}
	}
	return err
}

// wrapBackend installs a countingBackend on a kernel that hosts no enclave
// yet.
func wrapBackend(k *hostos.Kernel, tr *tracer, n *backendCounts) error {
	if err := k.SetBackend(&countingBackend{inner: k.Backend(), tr: tr, n: n}); err != nil {
		return fmt.Errorf("install counting backend: %w", err)
	}
	return nil
}
