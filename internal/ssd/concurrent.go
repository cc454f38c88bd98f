package ssd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/telemetry"
)

// ConcurrentDevice is a thread-safe, event-driven front end over the FTL:
// submissions may come from many goroutines, each request's flash work is
// sharded across per-chip simulated clocks (the PerChip queue model
// generalized to a real multi-queue scheduler), adjacent-LPN requests
// submitted in one batch coalesce into super-word-line submissions, and
// statistics merge deterministically — stable arrival order, never
// completion race order.
//
// Time is advanced by a conservative-horizon core: every chip owns an
// independent busy-until clock in till[chip], each flash operation starts at
// max(request arrival, its chip's clock) and advances only that clock, and
// the clocks synchronize solely at the completion horizon — a run's
// host-visible finish is the latest end time across the chips it touched.
// Because an op's start depends only on its own chip's clock and the ticket
// order fixes which op reaches each chip next, no cross-chip rendezvous is
// needed: end times are known the moment the FTL stage journals the op, so
// the former per-op worker handoff (a channel round trip per flash
// operation) is gone from the hot path.
//
// Ordering discipline: every submission holds a ticket. The FTL stage
// (mapping, GC, op-journal drain, chip-clock advance) executes in strict
// ticket order under one lock; completion assembly is pure arithmetic and
// runs outside it. Given pre-stamped arrival times and a fixed ticket order
// (see ReserveBatch), results are bit-for-bit independent of how many
// goroutines submit — a depth-16 replay produces exactly the depth-1
// completions.
//
// The "0 = now" arrival convention resolves against the latest admitted
// arrival (the deterministic choice under concurrency), not against
// completions as the serial Device's clock does.
type ConcurrentDevice struct {
	f   *ftl.FTL
	cfg Config

	mu     sync.Mutex             // serializes the FTL stage and admission state
	admit  *sync.Cond             // wakes submitters waiting for their ticket
	issued uint64                 // tickets handed out
	next   uint64                 // next ticket allowed into the FTL stage
	clock  float64                // latest admitted arrival, µs
	trc    telemetry.Tracer       // nil = tracing disabled (read under mu)
	led    *telemetry.Ledger      // nil = hop ledger disabled (read under mu)
	met    *telemetry.Metrics     // retained so PowerCycle can rewire the restored FTL
	attr   *telemetry.Attribution // retained for the same reason
	// tenants maps a tenant id to its pacing state: a shaped run may not
	// start before the tenant's virtual clock, which every run advances by
	// its chip work divided by the quota — deterministic per-tenant
	// service-rate isolation, maintained in ticket order under mu.
	tenants map[int]*tenantShape
	// resTill holds the per-chip reservation watermarks for quota-deferred
	// runs. Deferred ops are placed on this track — at or after both the
	// chip's busy-until watermark and the previous reservation — and never
	// advance till, so a throttled tenant's far-future reservations do not
	// hold the chip against anyone scheduled after it (shaping stays
	// work-conserving). The track only ever moves once a quota deferral
	// happened, so schedules without tenant shaping are untouched.
	resTill []float64
	// bufPages counts, per tenant, the pages sitting in the FTL's open
	// superpage buffer — maintained only while tenant quotas exist, and
	// reset at every flush. It decides which tenant a flush's programs are
	// attributed to (plurality of buffered pages), so a flood cannot launder
	// its chip work through the flush an innocent neighbor happens to trip.
	bufPages map[int]int
	// curTrace/curTicket hold the trace context of the request the FTL stage
	// is currently executing, so the blocking-GC observer (which fires from
	// inside WriteHinted) can attribute its page counts. Written and read
	// only under mu.
	curTrace  uint64
	curTicket uint64
	rec       *recState // nil until AttachRecorder (read under mu)
	// recExtra*, set before AttachRecorder, append caller-owned columns
	// (e.g. the network server's counters) after the device column set.
	recExtraCols []string
	recExtraFn   func(vals []float64)
	// till holds the per-chip simulated clocks — each chip's busy-until
	// watermark, advanced in strict ticket order by the FTL stage. It is the
	// authoritative schedule (there is no racy worker state to mirror): the
	// recorder samples utilization from it and the GC scheduler reads it to
	// find idle windows, so preemptive GC placement — and therefore every
	// result — stays bit-identical across submitter counts.
	till []float64
	// chips carries the per-chip op/busy counters, advanced alongside till.
	chips []ChipStats

	statsMu sync.Mutex
	records []latencyRecord // only populated when cfg.RetainLatencies
	counts  Stats           // scalar counters; Latencies are merged from records
	horizon float64         // latest completion observed, µs
	lat     *telemetry.Digest
	pend    []pendSlot                      // digest reorder buffer: pend[i] is ticket drain+i
	drain   uint64                          // next ticket the digest will consume
	qdepth  atomic.Pointer[telemetry.Gauge] // in-flight submissions; nil when unwired
}

// pendSlot is one ticket's latencies in batch-slot order.
type pendSlot struct {
	lats []float64
	done bool
}

// tenantShape paces one tenant's chip-work admission on the simulated
// clock. vt is the tenant's virtual clock — the earliest instant its next
// run may start; a run placed at start with W µs of chip work (plus bus
// transfer) advances vt to max(vt, start) + W/quota, so the tenant's
// long-run chip occupancy converges to quota chips no matter how its work
// clumps into buffered-write flushes.
type tenantShape struct {
	quota float64 // average number of chips the tenant may keep busy
	vt    float64
}

// latencyRecord keys one completion for the deterministic stats merge.
type latencyRecord struct {
	arrival float64
	ticket  uint64
	slot    int // position within the ticket's batch
	latency float64
}

// ChipStats reports one chip's simulated activity.
type ChipStats struct {
	Chip int
	Ops  uint64
	Busy float64 // µs of occupied chip time
	Till float64 // busy-until watermark, µs
}

// NewConcurrent builds a thread-safe device over the given flash array. The
// Queue field of the configuration is ignored (the front end always shards
// per chip). Close is a no-op kept for API compatibility.
func NewConcurrent(arr *flash.Array, cfg Config) (*ConcurrentDevice, error) {
	if cfg.BusMBps <= 0 {
		return nil, fmt.Errorf("ssd: bus bandwidth must be positive, got %v", cfg.BusMBps)
	}
	f, err := ftl.New(arr, cfg.FTL)
	if err != nil {
		return nil, err
	}
	f.EnableOpJournal()
	// Submitters transfer payload ownership: the server decodes every frame
	// into a fresh buffer and the workload generators build each payload per
	// request, so the FTL may store the slices directly (zero copy). Read
	// completions own their data — flash never recycles payload buffers in
	// this mode — so Completion.Data stays valid indefinitely, which the
	// asynchronous network writer relies on.
	f.SetPayloadOwnership(ftl.BorrowHost)
	chips := arr.Geometry().Chips
	c := &ConcurrentDevice{
		f:       f,
		cfg:     cfg,
		lat:     telemetry.NewDigest(),
		till:    make([]float64, chips),
		resTill: make([]float64, chips),
		chips:   make([]ChipStats, chips),
	}
	for i := range c.chips {
		c.chips[i].Chip = i
	}
	c.admit = sync.NewCond(&c.mu)
	return c, nil
}

// Close is retained for API compatibility. The conservative-horizon core
// advances every chip clock inside the FTL stage — there are no worker
// goroutines to stop.
func (c *ConcurrentDevice) Close() {}

// FTL exposes the underlying translation layer. Only touch it while no
// submission is in flight — the FTL itself is not thread-safe. Use WithFTL
// to inspect it while traffic is running.
func (c *ConcurrentDevice) FTL() *ftl.FTL { return c.f }

// WithFTL runs fn with the FTL-stage lock held. The FTL is only ever
// mutated inside that critical section, so fn gets a race-free view even
// while submissions are in flight (the network front end's STAT op relies
// on this). fn must not submit to the device — that would deadlock.
func (c *ConcurrentDevice) WithFTL(fn func(*ftl.FTL)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.f)
}

// PageSize returns the device's page size in bytes.
func (c *ConcurrentDevice) PageSize() int { return c.f.Geometry().PageSize }

// Now returns the simulated clock: the later of the latest admitted arrival
// and the latest completion. Both locks are held together — reading them in
// two separate critical sections would let a submission land between the
// reads and return a clock torn between two different instants.
func (c *ConcurrentDevice) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	t := c.clock
	if c.horizon > t {
		t = c.horizon
	}
	return t
}

// SetTracer attaches (or, with nil, detaches) a tracer recording the device
// pipeline on the simulated clock: one host span per request, an FTL-stage
// instant per coalesced run, and one span per chip operation. Call while no
// submission is in flight — typically after the warm fill, so the trace
// covers only the measured workload.
func (c *ConcurrentDevice) SetTracer(tr telemetry.Tracer) {
	c.mu.Lock()
	c.trc = tr
	c.mu.Unlock()
}

// SetLedger attaches (or, with nil, detaches) a hop ledger recording
// garbage-collection work attributed to traced requests: one HopGC record
// per preemptive GC step (SimUS = the step's flash latency, Pages = pages
// relocated), attributed to the trace that triggered the idle window or debt
// step, plus a zero-duration HopGC marker carrying the page count of any
// blocking collection a traced write tripped (the blocked time itself is in
// that write's Completion.GCTime, which the serving layer records — the
// marker only adds the relocation count the Completion cannot carry).
// Records are emitted under the serialized ticket-order FTL stage, so the
// ledger's sorted contents are identical across submitter counts. Call while
// no submission is in flight.
func (c *ConcurrentDevice) SetLedger(l *telemetry.Ledger) {
	c.mu.Lock()
	c.led = l
	c.wireGCObserver()
	c.mu.Unlock()
}

// wireGCObserver points the current FTL's GC observer at the attached
// ledger (or detaches it). Caller holds c.mu; PowerCycle re-runs this after
// swapping in the restored FTL.
func (c *ConcurrentDevice) wireGCObserver() {
	l := c.led
	if l == nil {
		c.f.SetGCObserver(nil)
		return
	}
	c.f.SetGCObserver(func(ev ftl.GCEvent) {
		// Step events are recorded by gcStepRun, which also knows the
		// schedule slot; only blocking refills are captured here.
		if !ev.Blocking || c.curTrace == 0 {
			return
		}
		l.Record(telemetry.HopRecord{
			Trace: c.curTrace, Hop: telemetry.HopGC, Parent: telemetry.HopNone,
			Seq: c.curTicket, LPN: -1, Pages: ev.Moves, SimTS: -1,
		})
	})
}

// SetAttribution wires (or, with nil, unwires) a straggler attribution table
// into the FTL. The FTL stage runs in strict ticket order, so the table's
// report is byte-identical across worker counts. Call while no submission is
// in flight.
func (c *ConcurrentDevice) SetAttribution(a *telemetry.Attribution) {
	c.mu.Lock()
	c.attr = a
	c.f.SetAttribution(a)
	c.mu.Unlock()
}

// SetTenantQuota registers (or, with quota <= 0, removes) a deterministic
// service quota for a tenant: the tenant may keep at most quota chips busy
// on average. Shaping is virtual-time pacing — each of the tenant's runs
// advances a per-tenant virtual clock by its chip work over the quota, and
// no run of the tenant may start before that clock — so a flood offered
// faster than its quota falls ever further behind (its Wait and tail
// latency grow with its own backlog) while the chip time it may not use yet
// stays free. Deferred runs ride a separate reservation track on each chip
// (see schedule), keeping shaping work-conserving for everyone else.
// Applied in ticket order under the FTL-stage lock, so results stay
// bit-identical across submitter counts. Requests whose Tenant has no
// registered quota (including Tenant 0) are unshaped. Call while no
// submission is in flight.
func (c *ConcurrentDevice) SetTenantQuota(tenant, quota int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if quota <= 0 {
		delete(c.tenants, tenant)
		return
	}
	if c.tenants == nil {
		c.tenants = make(map[int]*tenantShape)
	}
	c.tenants[tenant] = &tenantShape{quota: float64(quota)}
}

// AttachRecorder wires a flight recorder into the FTL stage: every clock
// advance ticks it, sampling WAF, in-flight depth, the extra-latency EWMA,
// assembly pool levels, and per-chip utilization. The recorder must have been
// built with RecorderColumns for this device's chip count. All sampled state
// is maintained under the serialized ticket-order stage (the per-chip clocks
// are authoritative, not racy worker state), so the recorder's export bytes
// are identical however many goroutines submit. Call while no submission is
// in flight — typically after the warm fill.
func (c *ConcurrentDevice) AttachRecorder(rec *telemetry.Recorder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec == nil {
		c.rec = nil
		return nil
	}
	rs, err := newRecState(rec, len(c.chips), c.f, len(c.recExtraCols), c.recExtraFn)
	if err != nil {
		return err
	}
	// Seed from the (idle) chip clocks so mid-run attachment — e.g. after the
	// warm fill — continues their schedule instead of restarting the timeline
	// at zero, and align the sampling cursor so the elapsed history is not
	// backfilled.
	for i := range c.chips {
		rs.busy[i] = c.chips[i].Busy
		if c.chips[i].Till > rs.hor {
			rs.hor = c.chips[i].Till
		}
	}
	c.statsMu.Lock()
	if c.horizon > rs.hor {
		rs.hor = c.horizon
	}
	if c.clock > rs.hor {
		rs.hor = c.clock
	}
	c.statsMu.Unlock()
	rs.rec.AlignTo(rs.hor)
	c.rec = rs
	return nil
}

// SetRecorderExtra registers extra flight-recorder columns filled by fn on
// every sample, appended after the device's RecorderColumns set — the
// serving layer wires its connection/in-flight counters in this way. Call
// before AttachRecorder; the recorder must then be built with
// append(RecorderColumns(chips), cols...). Extra columns read live state
// under the recorder lock, so they are excluded from the device columns'
// byte-determinism guarantee.
func (c *ConcurrentDevice) SetRecorderExtra(cols []string, fn func(vals []float64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recExtraCols = append([]string(nil), cols...)
	c.recExtraFn = fn
}

// FlushRecorder ticks the attached recorder up to the current simulated
// clock, emitting the samples between the last event and now. Call while no
// submission is in flight, after the final batch, before exporting.
func (c *ConcurrentDevice) FlushRecorder() {
	now := c.Now()
	c.mu.Lock()
	if c.rec != nil {
		c.rec.tick(now)
	}
	c.mu.Unlock()
}

// SetMetrics wires (or, with nil, unwires) a telemetry registry: the FTL's
// "ftl." counters, a "ssd.qdepth" gauge tracking in-flight submissions, and
// the streaming "ssd.latency" digest. Call while no submission is in flight;
// wiring a registry swaps in its (fresh) digest, so attaching after the warm
// fill keeps the fill out of the measured distribution.
func (c *ConcurrentDevice) SetMetrics(m *telemetry.Metrics) {
	c.met = m
	c.f.SetMetrics(m)
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if m == nil {
		c.qdepth.Store(nil)
		c.lat = telemetry.NewDigest()
		return
	}
	c.qdepth.Store(m.Gauge("ssd.qdepth"))
	c.lat = m.Digest("ssd.latency")
}

// LatencyDigest returns the streaming latency summary: moments plus P²
// p50/p95/p99 estimates in O(1) memory. Observations enter in ticket order (a
// ticket-indexed reorder buffer under the stats lock, not the FTL-stage one,
// holds completions that finish early), so the snapshot is identical however
// many goroutines submitted.
func (c *ConcurrentDevice) LatencyDigest() telemetry.DigestSnapshot {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.lat.Snapshot()
}

// Reserve allocates the next submission ticket. SubmitTicket admits tickets
// strictly in order, so every reserved ticket must eventually be submitted.
// Plain Submit/SubmitBatch draw theirs inside the FTL stage; use
// Reserve/ReserveBatch only to pin an externally defined order (e.g. trace
// order) onto concurrent submitters.
func (c *ConcurrentDevice) Reserve() uint64 {
	c.mu.Lock()
	t := c.issued
	c.issued++
	c.mu.Unlock()
	return t
}

// NextTicket returns the ticket the next Reserve would hand out, without
// consuming it. The network server uses it to rebase a client's dense
// 0-based sequence numbers onto a device whose ticket counter has already
// advanced (e.g. past a warm fill).
func (c *ConcurrentDevice) NextTicket() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued
}

// ReserveBatch allocates n consecutive tickets and returns the first.
func (c *ConcurrentDevice) ReserveBatch(n int) uint64 {
	c.mu.Lock()
	t := c.issued
	c.issued += uint64(n)
	c.mu.Unlock()
	return t
}

// Submit services one request. Safe for concurrent use; the request enters
// the FTL in ticket (submission) order.
func (c *ConcurrentDevice) Submit(req Request) (Completion, error) {
	return c.submitOne(0, true, req)
}

// SubmitTicket services one request under a previously reserved ticket,
// blocking until all earlier tickets have entered the FTL stage.
func (c *ConcurrentDevice) SubmitTicket(ticket uint64, req Request) (Completion, error) {
	return c.submitOne(ticket, false, req)
}

// submitOne keeps the request and its completion on this stack, so the
// single-request path allocates nothing.
func (c *ConcurrentDevice) submitOne(ticket uint64, reserve bool, req Request) (Completion, error) {
	reqs := [1]Request{req}
	var comps [1]Completion
	if _, err := c.submit(ticket, reserve, reqs[:], comps[:]); err != nil {
		return Completion{}, err
	}
	return comps[0], nil
}

// SubmitBatch services several requests as one submission. Runs of
// adjacent-LPN writes coalesce into back-to-back super-word-line buffer
// fills (sharing their multi-plane program), and runs of adjacent-LPN reads
// into multi-plane range reads whose cost is the slowest member, not the
// sum. Completions are returned in request order.
func (c *ConcurrentDevice) SubmitBatch(reqs []Request) ([]Completion, error) {
	return c.submit(0, true, reqs, nil)
}

// SubmitBatchTicket is SubmitBatch under a previously reserved ticket.
func (c *ConcurrentDevice) SubmitBatchTicket(ticket uint64, reqs []Request) ([]Completion, error) {
	return c.submit(ticket, false, reqs, nil)
}

// run is one coalesced unit of a batch: [first, first+n) of the request
// slice, serviced as a single flash submission. GC pseudo-runs carry chip
// work but no requests (n = 0).
type run struct {
	first, n int
	arrival  float64   // service start: max member arrival (0 resolved to the clock)
	end      float64   // latest chip-op end time; arrival when the run had no flash work
	arrivals []float64 // resolved per-member arrivals
	xfer     float64   // host-bus time of the whole run (or command overhead)
	data     [][]byte  // read payloads per member, nil otherwise
	gcl      []float64 // blocking-GC latency per member write (lazily allocated; nil = all zero)
}

// submitScratch is the per-submission working set — the run list and each
// run's per-member slices — recycled through a sync.Pool so the steady-state
// Submit path allocates nothing beyond the completions it returns. The pool
// cannot affect determinism: every field of every reused run is overwritten
// (or truncated and refilled) before it is read.
type submitScratch struct {
	runs []run
}

var scratchPool = sync.Pool{New: func() any { return new(submitScratch) }}

// nextRun appends a zeroed run to the scratch, reviving the per-member slice
// capacity a previous submission left in the backing array.
func (s *submitScratch) nextRun() *run {
	if len(s.runs) < cap(s.runs) {
		s.runs = s.runs[:len(s.runs)+1]
		r := &s.runs[len(s.runs)-1]
		arrivals, data := r.arrivals, r.data
		*r = run{arrivals: arrivals[:0], data: data[:0]}
		return r
	}
	s.runs = append(s.runs, run{})
	return &s.runs[len(s.runs)-1]
}

// submit services reqs under ticket — or, with reserve, under the next
// ticket, drawn in the FTL stage's critical section — and returns their
// completions in comps, allocated when nil.
func (c *ConcurrentDevice) submit(ticket uint64, reserve bool, reqs []Request, comps []Completion) ([]Completion, error) {
	if comps == nil {
		comps = make([]Completion, len(reqs))
	}
	if g := c.qdepth.Load(); g != nil {
		g.Add(1)
		defer g.Add(-1)
	}
	sc := scratchPool.Get().(*submitScratch)
	sc.runs = sc.runs[:0]
	c.mu.Lock()
	if reserve {
		ticket = c.issued
		c.issued++
	}
	for c.next != ticket {
		c.admit.Wait()
	}
	var err error
	if len(reqs) > 0 {
		err = c.ftlStage(ticket, reqs, sc)
	}
	trc := c.trc
	// The ticket advances even on error (and on an empty batch) so later
	// submitters are never deadlocked behind a failed request.
	c.next = ticket + 1
	c.admit.Broadcast()
	c.mu.Unlock()

	// Completion stage, outside the lock: pure arithmetic — every run's end
	// time was fixed by the FTL stage against the per-chip clocks, so there
	// is nothing to wait for.
	runs := sc.runs
	for ri := range runs {
		r := &runs[ri]
		finish := r.end + r.xfer
		for i := 0; i < r.n; i++ {
			arr := r.arrivals[i]
			var gct float64
			if r.gcl != nil {
				gct = r.gcl[i]
			}
			comps[r.first+i] = Completion{
				Start:   r.arrival,
				Finish:  finish,
				Wait:    r.arrival - arr,
				Service: finish - r.arrival,
				Latency: finish - arr,
				GCTime:  gct,
				Data:    r.data[i],
			}
		}
	}
	if err != nil {
		// The digest drain must still see this ticket, or every later
		// completion would sit in the reorder buffer forever.
		c.statsMu.Lock()
		c.pendSlot(ticket).done = true
		c.feedDigest()
		c.statsMu.Unlock()
		scratchPool.Put(sc)
		return nil, err
	}
	if trc != nil {
		for ri := range runs {
			r := &runs[ri]
			head := reqs[r.first]
			trc.Emit(telemetry.Event{
				Ts: r.arrival, Track: telemetry.TrackFTL, Ph: telemetry.PhaseInstant,
				Name: "ftl-stage", Cat: "ftl", Seq: ticket, Slot: r.first, LPN: head.LPN,
			})
			for i := 0; i < r.n; i++ {
				req := reqs[r.first+i]
				cp := comps[r.first+i]
				trc.Emit(telemetry.Event{
					Ts: r.arrivals[i], Dur: cp.Latency, Track: telemetry.TrackHost,
					Ph: telemetry.PhaseSpan, Name: req.Kind.String(), Cat: "host",
					Seq: ticket, Slot: r.first + i, LPN: req.LPN, TraceID: req.Trace,
				})
			}
		}
	}
	// Latencies of this ticket in slot order: the reorder buffer feeds them
	// to the digest in ticket order, so the streaming quantiles are the same
	// at any submission depth.
	c.statsMu.Lock()
	ps := c.pendSlot(ticket)
	for ri := range runs {
		r := &runs[ri]
		for i := 0; i < r.n; i++ {
			cp := comps[r.first+i]
			c.counts.Requests++
			switch reqs[r.first+i].Kind {
			case OpWrite:
				c.counts.Writes++
			case OpRead:
				c.counts.Reads++
			case OpTrim:
				c.counts.Trims++
			}
			if c.cfg.RetainLatencies {
				c.records = append(c.records, latencyRecord{
					arrival: r.arrivals[i], ticket: ticket, slot: r.first + i, latency: cp.Latency,
				})
			}
			ps.lats = append(ps.lats, cp.Latency)
			if cp.Finish > c.horizon {
				c.horizon = cp.Finish
			}
		}
	}
	ps.done = true
	c.feedDigest()
	c.statsMu.Unlock()
	scratchPool.Put(sc)
	return comps, nil
}

// pendSlot returns ticket's emptied reorder-buffer slot. A ticket is at most
// as far past the drain as there are submissions in flight. Caller holds
// c.statsMu.
func (c *ConcurrentDevice) pendSlot(ticket uint64) *pendSlot {
	i := int(ticket - c.drain)
	if i >= len(c.pend) {
		if i < cap(c.pend) {
			c.pend = c.pend[:i+1]
		} else {
			c.pend = append(c.pend[:cap(c.pend)], make([]pendSlot, i+1-cap(c.pend))...)
		}
	}
	ps := &c.pend[i]
	ps.lats = ps.lats[:0]
	return ps
}

// feedDigest advances the ticket-order drain over the reorder buffer's
// finished prefix, then rotates the drained slots behind the pending ones so
// their latency slices are reused. Caller holds c.statsMu.
func (c *ConcurrentDevice) feedDigest() {
	n := 0
	for ; n < len(c.pend) && c.pend[n].done; n++ {
		for _, v := range c.pend[n].lats {
			c.lat.Observe(v)
		}
		c.pend[n].done = false
	}
	if n == 0 {
		return
	}
	c.drain += uint64(n)
	rest := len(c.pend) - n
	for j := 0; j < rest; j++ {
		c.pend[j], c.pend[j+n] = c.pend[j+n], c.pend[j]
	}
	c.pend = c.pend[:rest]
}

// maxTill returns the busy-until horizon across all chip clocks — when the
// device frees up, as scheduled in ticket order.
func (c *ConcurrentDevice) maxTill() float64 {
	h := 0.0
	for _, t := range c.till {
		if t > h {
			h = t
		}
	}
	return h
}

// schedule advances one chip's simulated clock over a flash operation: the
// op starts at max(earliest, the chip's busy-until watermark) and the end
// time is returned. Per-chip counters, recorder utilization, and the chip
// trace span are maintained in the same step. Caller holds c.mu; because the
// FTL stage runs in strict ticket order, each chip's clock sees its ops in a
// deterministic sequence and the whole schedule is bit-identical however
// many goroutines submit.
//
// deferred marks ops of a run the tenant quota pushed into the future. They
// ride a separate reservation track (resTill): a deferred op starts at or
// after both watermarks but advances only the reservation one, so the idle
// stretch a deferral skips over stays open for everyone scheduled after it
// — shaping is work-conserving, and a paced tenant's far-future
// reservations can never drag an unshaped tenant's ops to its backlog
// horizon. The two tracks may overlap once normal work catches up to a
// reservation; that costs placement fidelity only when aggregate demand
// (quotas plus unshaped load) exceeds the chip count. Both tracks are pure
// functions of the ticket order, so determinism is preserved.
func (c *ConcurrentDevice) schedule(op ftl.FlashOp, earliest float64, ticket uint64, slot int, deferred bool) float64 {
	s := earliest
	if t := c.till[op.Chip]; t > s {
		s = t
	}
	if deferred {
		if t := c.resTill[op.Chip]; t > s {
			s = t
		}
		c.resTill[op.Chip] = s + op.Dur
	} else {
		c.till[op.Chip] = s + op.Dur
	}
	e := s + op.Dur
	cs := &c.chips[op.Chip]
	cs.Ops++
	cs.Busy += op.Dur
	cs.Till = c.till[op.Chip]
	if c.rec != nil {
		c.rec.busy[op.Chip] += op.Dur
	}
	if c.trc != nil {
		c.trc.Emit(telemetry.Event{
			Ts:    s,
			Dur:   op.Dur,
			Track: telemetry.TrackChip(op.Chip),
			Ph:    telemetry.PhaseSpan,
			GC:    op.GC,
			Name:  telemetry.OpName(op.Kind),
			Cat:   "flash",
			Seq:   ticket,
			Slot:  slot,
			LPN:   -1,
		})
	}
	return e
}

// bufMajority returns the tenant owning the plurality of pages buffered
// since the last superpage flush (ties break to the smallest tenant id, so
// the answer never depends on map iteration order). Caller holds c.mu.
func (c *ConcurrentDevice) bufMajority() (int, bool) {
	best, n := 0, -1
	for t, k := range c.bufPages {
		if k > n || (k == n && t < best) {
			best, n = t, k
		}
	}
	return best, n >= 0
}

// gcStepRun executes one preemptive GC step in the FTL stage and schedules
// its chip work as a pseudo-run (no completions). Caller holds c.mu;
// earliest bounds where the step's flash ops may start; trace attributes the
// step to the request that opened the window (0 = untraced); deferred routes
// the step's chip work onto the reservation track — debt paid behind a
// quota-deferred ticket belongs to that tenant's schedule, not in front of
// everyone else's. worked is false when GC had nothing to do.
func (c *ConcurrentDevice) gcStepRun(ticket uint64, earliest float64, trace uint64, sc *submitScratch, deferred bool) (bool, error) {
	var res ftl.GCStepResult
	ops, err := c.f.CollectOps(func() error {
		var e error
		res, e = c.f.GCStep(c.f.GCStepPages())
		return e
	})
	if c.led != nil && trace != 0 && !res.Idle {
		c.led.Record(telemetry.HopRecord{
			Trace: trace, Hop: telemetry.HopGC, Parent: telemetry.HopNone,
			Seq: ticket, LPN: -1, Pages: res.Moves, SimTS: earliest, SimUS: res.Latency,
		})
	}
	r := sc.nextRun()
	r.arrival, r.end = earliest, earliest
	for _, op := range ops {
		if e := c.schedule(op, earliest, ticket, -1, deferred); e > r.end {
			r.end = e
		}
	}
	return !res.Idle, err
}

// gcIdleSteps runs GC steps in the idle window before arrival — the gap
// between the chip-clock horizon and the next request's start. Host work
// keeps priority: stepping stops once the window is consumed (the last step
// may overshoot; flash ops are not preemptible).
func (c *ConcurrentDevice) gcIdleSteps(ticket uint64, arrival float64, trace uint64, sc *submitScratch) error {
	for c.maxTill() < arrival && c.f.GCNeeded() {
		worked, err := c.gcStepRun(ticket, c.maxTill(), trace, sc, false)
		if err != nil {
			return err
		}
		if !worked {
			break
		}
	}
	return nil
}

// ftlStage executes a batch against the FTL in run-sized units, advancing
// the per-chip clocks over the journalled chip work. Caller holds c.mu. On
// error the runs executed so far remain in sc, their end times already
// final.
func (c *ConcurrentDevice) ftlStage(ticket uint64, reqs []Request, sc *submitScratch) error {
	if c.f.GCStepPages() > 0 {
		// Preemptive GC in the idle window before this ticket's work: steps
		// are scheduled against the chip-clock horizon, in ticket order, so
		// placement is identical however many goroutines submit.
		a0 := reqs[0].Arrival
		if a0 == 0 {
			a0 = c.clock
		}
		if err := c.gcIdleSteps(ticket, a0, reqs[0].Trace, sc); err != nil {
			return err
		}
	}
	opIdx := 0 // op index across the whole batch, for trace attribution
	batchDeferred := false
	for first := 0; first < len(reqs); {
		n := runLen(reqs[first:])
		r := sc.nextRun()
		r.first, r.n = first, n
		if cap(r.arrivals) < n {
			r.arrivals = make([]float64, n)
		} else {
			r.arrivals = r.arrivals[:n]
		}
		if cap(r.data) < n {
			r.data = make([][]byte, n)
		} else {
			r.data = r.data[:n]
			for i := range r.data {
				r.data[i] = nil
			}
		}
		for i := 0; i < n; i++ {
			a := reqs[first+i].Arrival
			if a == 0 {
				a = c.clock
			}
			r.arrivals[i] = a
			if a > r.arrival {
				r.arrival = a
			}
		}
		if r.arrival > c.clock {
			c.clock = r.arrival
		}
		if c.rec != nil {
			// Sample any interval boundaries this run's arrival crossed
			// before executing it, so samples hold the pre-event state.
			c.rec.tick(c.clock)
		}
		ops, err := c.f.CollectOps(func() error {
			for i := 0; i < n; i++ {
				req := reqs[first+i]
				c.curTrace, c.curTicket = req.Trace, ticket
				switch req.Kind {
				case OpWrite:
					res, err := c.f.WriteHinted(req.LPN, req.Data, req.Hint)
					if err != nil {
						return err
					}
					if res.GCLatency > 0 {
						if r.gcl == nil {
							r.gcl = make([]float64, n)
						}
						r.gcl[i] = res.GCLatency
					}
					r.xfer += c.transferTime(len(req.Data))
				case OpRead:
					if n > 1 {
						// An adjacent-LPN read run: one multi-plane range
						// read covers every member.
						datas, _, err := c.f.ReadRange(req.LPN, n)
						if err != nil {
							return err
						}
						for j, d := range datas {
							r.data[j] = d
							r.xfer += c.transferTime(len(d))
						}
						return nil
					}
					res, err := c.f.Read(req.LPN)
					if err != nil {
						return err
					}
					r.data[i] = res.Data
					r.xfer += c.transferTime(len(res.Data))
				case OpTrim:
					if err := c.f.Trim(req.LPN); err != nil {
						return err
					}
					r.xfer += 1 // command overhead only
				default:
					return fmt.Errorf("ssd: unknown op kind %v", req.Kind)
				}
			}
			return nil
		})
		// Tenant shaping: a quota'd tenant's run may not start before the
		// tenant's virtual clock. The run's work is attributed to the tenant
		// that owns it — normally the submitter, but a superpage flush belongs
		// to whoever buffered the plurality of its pages: under a flood, most
		// flushes a quiet tenant trips carry the flood's pages, and that work
		// must ride the flood's schedule, not land in front of everyone else.
		// A detached run (flush of a shaped neighbor's pages) completes at
		// buffer-insert time — the submitter ACKs like any buffered write
		// while the programs run on the owner's reservation track.
		var shape *tenantShape
		deferred, detached := false, false
		schedAt := r.arrival
		if len(c.tenants) > 0 {
			owner := reqs[first].Tenant
			if reqs[first].Kind == OpWrite {
				if c.bufPages == nil {
					c.bufPages = make(map[int]int)
				}
				c.bufPages[owner] += n
				if len(ops) > 0 {
					if m, ok := c.bufMajority(); ok && m != owner && c.tenants[m] != nil {
						owner = m
						detached = true
					}
					for t := range c.bufPages {
						delete(c.bufPages, t)
					}
				}
			}
			shape = c.tenants[owner]
			if shape != nil && shape.vt > schedAt {
				schedAt = shape.vt
				deferred = true
				batchDeferred = true
				if !detached {
					// Own deferral is measured from the stamped arrival, so
					// it surfaces as Wait on the completion.
					r.arrival = schedAt
				}
			}
		}
		r.end = r.arrival
		for _, op := range ops {
			e := c.schedule(op, schedAt, ticket, opIdx, deferred)
			if !detached && e > r.end {
				r.end = e
			}
			opIdx++
		}
		if c.rec != nil {
			c.rec.note(r.end + r.xfer)
		}
		if err != nil {
			return err
		}
		if shape != nil {
			// Charge the run's chip work (and its bus transfer) against the
			// owning tenant's virtual clock at 1/quota speed. A detached
			// flush charges its owner the programs only — the bus transfer
			// belongs to the submitter.
			var work float64
			for _, op := range ops {
				work += op.Dur
			}
			xfer := r.xfer
			if detached {
				xfer = 0
			}
			base := shape.vt
			if schedAt > base {
				base = schedAt
			}
			shape.vt = base + (work+xfer)/shape.quota
		}
		first += n
	}
	if c.f.GCStepPages() > 0 && c.f.GCNeeded() {
		// Debt steps: closed-loop hosts never leave an idle window, so pay one
		// increment of reclamation per ticket behind the submitted work. Host
		// work keeps strict priority: while the chips run behind the clock
		// (backlogged), no step is taken — unless the FTL reports pressure: a
		// trickle step when the pool is down to the GC reserve row, a small
		// burst when it is empty. Always bounded, so a ticket never schedules
		// a whole collection at once.
		steps := 1
		switch c.f.GCPressure() {
		case 2:
			steps = 4
		case 1:
		default:
			if c.maxTill() > c.clock {
				steps = 0
			}
		}
		// Debt paid behind a quota-deferred ticket rides that tenant's
		// reservation track: the churn is the shaped tenant's, so its cost
		// must not land in front of everyone else's arrivals.
		for i := 0; i < steps && c.f.GCNeeded(); i++ {
			worked, err := c.gcStepRun(ticket, c.clock, reqs[0].Trace, sc, batchDeferred)
			if err != nil {
				return err
			}
			if !worked {
				break
			}
		}
	}
	return nil
}

// runLen returns the length of the coalescible run at the head of reqs: a
// maximal sequence of same-kind read or write requests whose LPNs ascend by
// exactly one (writes must also share a hint, and members must share a
// tenant so shaping and quota accounting stay per-namespace). Anything else
// is a singleton.
func runLen(reqs []Request) int {
	head := reqs[0]
	if head.Kind != OpWrite && head.Kind != OpRead {
		return 1
	}
	n := 1
	for n < len(reqs) {
		next := reqs[n]
		if next.Kind != head.Kind || next.LPN != head.LPN+int64(n) || next.Tenant != head.Tenant {
			break
		}
		if head.Kind == OpWrite && next.Hint != head.Hint {
			break
		}
		n++
	}
	return n
}

func (c *ConcurrentDevice) transferTime(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / c.cfg.BusMBps // bytes / (MB/s) = µs
}

// Stats returns the merged device statistics. When Config.RetainLatencies
// is set, Latencies are ordered by (arrival, ticket, batch slot) — a stable,
// deterministic merge that does not depend on which submitter finished
// first. Otherwise Latencies is nil and the streaming LatencyDigest carries
// the distribution in O(1) memory.
func (c *ConcurrentDevice) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	recs := append([]latencyRecord(nil), c.records...)
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.ticket != b.ticket {
			return a.ticket < b.ticket
		}
		return a.slot < b.slot
	})
	s := c.counts
	s.Latencies = make([]float64, len(recs))
	for i, r := range recs {
		s.Latencies[i] = r.latency
	}
	return s
}

// PowerCycleReport describes one simulated power cut + restore.
type PowerCycleReport struct {
	CutAt           float64 // simulated instant the power failed, µs
	CheckpointUS    float64 // flash time of the pre-cut GC drain + flush
	CheckpointBytes int     // size of the checkpoint image
	RecoveredAt     float64 // instant the device accepts work again, µs
}

// PowerCycle simulates a power cut with a checkpoint-backed restart: the
// FTL drains its in-flight collection, flushes open buffers and writes a
// checkpoint (the flash work is scheduled on the chip clocks, so the
// pre-cut drain costs simulated time); then the RAM state is discarded and
// rebuilt from the checkpoint over the same (data-retaining) array, exactly
// the Restore path a real controller runs at boot. Every chip clock is
// advanced to cut + recoverUS, so the modeled outage shows up in the
// latency of whatever requests are queued behind it. Telemetry wiring
// (metrics, attribution, GC-ledger observer) carries over to the restored
// FTL. Callers must quiesce submissions first — the cut lands between
// tickets, never inside one.
func (c *ConcurrentDevice) PowerCycle(recoverUS float64) (PowerCycleReport, error) {
	if recoverUS < 0 {
		return PowerCycleReport{}, fmt.Errorf("ssd: negative recovery time %v", recoverUS)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.maxTill()
	if c.clock > start {
		start = c.clock
	}
	// Completions extend past the chip clocks by their bus transfer; the
	// cut must not land before the last byte reached the host.
	c.statsMu.Lock()
	if c.horizon > start {
		start = c.horizon
	}
	c.statsMu.Unlock()
	c.curTrace, c.curTicket = 0, c.next
	var snap []byte
	ops, err := c.f.CollectOps(func() error {
		var e error
		snap, e = c.f.Checkpoint()
		return e
	})
	if err != nil {
		return PowerCycleReport{}, fmt.Errorf("ssd: power-cut checkpoint: %w", err)
	}
	cut := start
	for _, op := range ops {
		if e := c.schedule(op, start, c.next, -1, false); e > cut {
			cut = e
		}
	}
	g, err := ftl.Restore(c.f.Array(), c.cfg.FTL, snap)
	if err != nil {
		return PowerCycleReport{}, fmt.Errorf("ssd: power-cut restore: %w", err)
	}
	g.EnableOpJournal()
	g.SetPayloadOwnership(ftl.BorrowHost)
	if c.met != nil {
		g.SetMetrics(c.met)
	}
	if c.attr != nil {
		g.SetAttribution(c.attr)
	}
	c.f = g
	c.wireGCObserver()
	recovered := cut + recoverUS
	for i := range c.till {
		c.till[i] = recovered
		c.resTill[i] = recovered // pre-cut reservations died with the schedule
		c.chips[i].Till = recovered
	}
	for t := range c.bufPages {
		delete(c.bufPages, t) // the open superpage buffer died with the cut
	}
	if recovered > c.clock {
		c.clock = recovered
	}
	return PowerCycleReport{
		CutAt: cut, CheckpointUS: cut - start,
		CheckpointBytes: len(snap), RecoveredAt: recovered,
	}, nil
}

// ChipStats returns a snapshot of every chip clock's activity, in chip
// order. Safe to call while submissions are in flight.
func (c *ConcurrentDevice) ChipStats() []ChipStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ChipStats(nil), c.chips...)
}

// FillSequential writes every logical page once, submitting in super-word-
// line-sized adjacent-LPN batches so the fill exercises the coalescing path.
func (c *ConcurrentDevice) FillSequential(payload func(lpn int64) []byte) error {
	batch := c.f.Geometry().Lanes() * flash.PagesPerLWL
	reqs := make([]Request, 0, batch)
	flushBatch := func() error {
		if len(reqs) == 0 {
			return nil
		}
		_, err := c.SubmitBatch(reqs)
		reqs = reqs[:0]
		return err
	}
	for lpn := int64(0); lpn < c.f.Capacity(); lpn++ {
		var data []byte
		if payload != nil {
			data = payload(lpn)
		}
		reqs = append(reqs, Request{Kind: OpWrite, LPN: lpn, Data: data})
		if len(reqs) == batch {
			if err := flushBatch(); err != nil {
				return fmt.Errorf("ssd: fill at lpn %d: %w", lpn, err)
			}
		}
	}
	if err := flushBatch(); err != nil {
		return fmt.Errorf("ssd: fill tail: %w", err)
	}
	return nil
}
