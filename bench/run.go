package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/server"
	"superfast/internal/volume"
)

// params are the run settings that are not part of a workload.
type params struct {
	seed    uint64
	seconds float64 // length of the timed phase
	blocks  int     // blocks per plane; blocksPerPlane except in tests
	scale   float64 // multiplies warmOps, winOps and simOps; 1 except in tests
	trace   bool    // record spans (ladder runs)
	outDir  string  // where a ladder run writes its spans
}

func (p params) scaled(n int) int { return int(float64(n) * p.scale) }

const (
	setupReps = 3    // set-ups per end-to-end run; setup_s is their median
	sweepLPNs = 4096 // LPNs read back after the timed phase
)

// procStart approximates process start: package initialisation runs before
// main and after only the Go runtime's own start-up.
var procStart = time.Now()

// span is one timed interval of the traced run: op is the index in the op
// stream (shared by every rung that replays it), parent the enclosing span.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// driver is the closed-loop load generator: one goroutine, one connection,
// at most depth ops in flight, completions collected in issue order.
type driver struct {
	w    *workload
	tgt  target
	gen  *generator
	rung string

	slots []slot
	depth int      // ops in flight at most; slots[:depth] are in use
	bufs  [][]byte // per-slot payload buffers for non-borrowing targets
	next  int      // ops issued

	epoch     time.Time
	attempted int
	failed    int
	firstErr  error

	// Recording, on during the timed phase only.
	sample int      // time one op in this many; 0 = off
	lat    []uint32 // wall latency of sampled ops, ns, in issue order
	kinds  []bool   // whether each sampled op was a write, while non-nil
	simLat []float64
	simCap int
	spans  []span // preallocated ring; nil unless tracing
	nspans int
}

// slot is one in-flight op.
type slot struct {
	op     op
	idx    int   // position in the op stream
	t0     int64 // issue time, ns since epoch, when timed or traced
	busy   bool
	timed  bool
	traced bool
}

// traceEvery is the share of ops the traced run records spans for.
const traceEvery = 64

func newDriver(w *workload, r rung, tgt target, gen *generator) *driver {
	d := &driver{w: w, tgt: tgt, gen: gen, rung: r.String(), epoch: time.Now(), slots: make([]slot, maxDepth), depth: maxDepth}
	if !tgt.borrows() {
		d.bufs = make([][]byte, maxDepth)
		for i := range d.bufs {
			d.bufs[i] = make([]byte, w.payload)
		}
	}
	return d
}

func (d *driver) now() int64 { return time.Since(d.epoch).Nanoseconds() }

func (d *driver) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

func (o op) String() string {
	if o.write {
		return fmt.Sprintf("write lpn %d", o.lpn)
	}
	return fmt.Sprintf("read lpn %d", o.lpn)
}

// issue sends one op, first collecting the oldest in-flight op if the
// queue is full.
func (d *driver) issue(o op) {
	i := d.next % d.depth
	s := &d.slots[i]
	if s.busy {
		d.complete(i)
	}
	var payload []byte
	if o.write {
		if d.bufs != nil {
			payload = d.bufs[i]
		} else {
			payload = make([]byte, d.w.payload)
		}
		stamp(payload, o.lpn, d.gen.ver[o.lpn])
	}
	*s = slot{op: o, idx: d.next, busy: true}
	s.timed = d.sample > 0 && d.next%d.sample == 0
	s.traced = d.spans != nil && d.next%traceEvery == 0
	d.next++
	d.attempted++
	if s.timed || s.traced {
		s.t0 = d.now()
	}
	if err := d.tgt.start(i, o, payload); err != nil {
		s.busy = false
		d.fail(fmt.Errorf("%v: %w", o, err))
		return
	}
	if s.traced {
		d.addSpan(s.idx, d.rung+".start", d.rung, s.t0, d.now())
	}
}

// complete resolves the op in slot i and checks a read's payload against
// the shadow map. No LPN has two ops in flight, so the only correct
// version is the last one issued.
func (d *driver) complete(i int) {
	s := &d.slots[i]
	s.busy = false
	var w0 int64
	if s.traced {
		w0 = d.now()
	}
	res, err := d.tgt.wait(i)
	if s.timed || s.traced {
		end := d.now()
		if s.timed {
			d.lat = append(d.lat, uint32(min(end-s.t0, 1<<32-1)))
			if d.kinds != nil {
				d.kinds = append(d.kinds, s.op.write)
			}
		}
		if s.traced {
			d.addSpan(s.idx, d.rung+".wait", d.rung, w0, end)
			d.addSpan(s.idx, d.rung, "", s.t0, end)
		}
	}
	if err != nil {
		d.fail(fmt.Errorf("%v: %w", s.op, err))
		return
	}
	if len(d.simLat) < d.simCap {
		d.simLat = append(d.simLat, res.simUS)
	}
	if o := s.op; !o.write && !stampOK(res.data, d.w.payload, o.lpn, d.gen.ver[o.lpn]) {
		d.fail(fmt.Errorf("%v: payload is not version %d", o, d.gen.ver[o.lpn]))
	}
}

func (d *driver) addSpan(op int, name, parent string, start, end int64) {
	d.spans[d.nspans%len(d.spans)] = span{op, name, parent, start, end}
	d.nspans++
}

// setDepth drains the queue and continues at depth n.
func (d *driver) setDepth(n int) {
	d.drain()
	d.depth = n
	d.gen.setDepth(n)
}

// drain collects every op still in flight, oldest first.
func (d *driver) drain() {
	for k := 0; k < d.depth; k++ {
		if i := (d.next + k) % d.depth; d.slots[i].busy {
			d.complete(i)
		}
	}
}

// fill writes every LPN once, unstamped (arrival 0 = "now"), so the device
// starts fully mapped.
func (d *driver) fill() {
	for lpn := int64(0); lpn < d.gen.space; lpn++ {
		o := op{write: true, lpn: lpn}
		d.gen.note(o)
		d.issue(o)
	}
	d.drain()
}

// sweep reads n LPNs drawn from the stream's generator back and checks
// them against the final shadow map.
func (d *driver) sweep(n int) {
	for i := 0; i < n; i++ {
		o := op{lpn: d.gen.r.intn(d.gen.space)}
		for d.gen.busy(o.lpn) {
			o.lpn = d.gen.r.intn(d.gen.space)
		}
		d.gen.clock += d.w.gapUS
		o.arrival = d.gen.clock
		d.gen.note(o)
		d.issue(o)
	}
	d.drain()
}

// usage is a process resource reading.
type usage struct {
	wall      time.Time
	userNS    int64
	sysNS     int64
	ctxSwitch int64
	maxRSSKiB int64
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNS uint64
	heapInuse uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	u := usage{
		wall:      time.Now(),
		userNS:    ru.Utime.Nano(),
		sysNS:     ru.Stime.Nano(),
		ctxSwitch: ru.Nvcsw + ru.Nivcsw,
		maxRSSKiB: ru.Maxrss,
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.bytes = ms.Mallocs, ms.TotalAlloc
	u.gcCycles, u.gcPauseNS, u.heapInuse = ms.NumGC, ms.PauseTotalNs, ms.HeapInuse
	return u
}

// counters is the public state of the layers below the generator, read
// while nothing is in flight.
type counters struct {
	ftl     ftl.Stats
	flash   flash.Counters
	chipUS  float64 // sum of ChipStats.Busy over every chip of every device
	chips   int
	devReqs []uint64           // requests per device
	srv     server.ServerStats // summed over backends
	proxy   server.ServerStats
	pairs   int // Scheme.PairChecks, summed
	asm     int // Scheme.Assembled, summed
}

func (s *stack) counters() counters {
	var c counters
	s.eachFTL(func(i int, f *ftl.FTL) {
		st := f.Stats()
		c.ftl.HostWrites += st.HostWrites
		c.ftl.HostReads += st.HostReads
		c.ftl.GCWrites += st.GCWrites
		c.ftl.GCRuns += st.GCRuns
		c.ftl.GCSteps += st.GCSteps
		c.ftl.GCStalls += st.GCStalls
		c.ftl.Flushes += st.Flushes
		c.ftl.ExtraPgm += st.ExtraPgm
		c.pairs += f.Scheme().PairChecks()
		c.asm += f.Scheme().Assembled()
		fc := s.arrs[i].Counters()
		c.flash.Programs += fc.Programs
		c.flash.Reads += fc.Reads
		c.flash.Erases += fc.Erases
		c.flash.ReadRetries += fc.ReadRetries
	})
	for _, dev := range s.devs {
		for _, cs := range dev.ChipStats() {
			c.chipUS += cs.Busy
			c.chips++
		}
		c.devReqs = append(c.devReqs, dev.Stats().Requests)
	}
	for _, srv := range s.srvs {
		st := srv.Stats()
		c.srv.Accepted += st.Accepted
		c.srv.Responses += st.Responses
		c.srv.Rejected += st.Rejected
		c.srv.BytesIn += st.BytesIn
		c.srv.BytesOut += st.BytesOut
	}
	if s.proxy != nil {
		c.proxy = s.proxy.Stats()
	}
	return c
}

// idleAt returns the simulated instant every chip of every device is idle:
// where the stamped arrival stream may start without inheriting the
// backlog the unstamped fill left on the chip clocks.
func (s *stack) idleAt() float64 {
	t := 0.0
	for _, dev := range s.devs {
		for _, cs := range dev.ChipStats() {
			t = max(t, cs.Till)
		}
	}
	return t
}

// measurement is everything one timed run of one rung yields.
type measurement struct {
	setupS float64

	ops    int       // ops issued in whole windows
	winOps int       // ops per window
	winS   []float64 // elapsed seconds per window
	sample int       // one op in this many has a wall latency in lat
	lat    []uint32  // ns, in issue order
	kinds  []bool    // whether each was a write (traced runs)
	start  usage
	end    usage
	cal    [2]float64 // the harness's own mallocs and bytes per op

	simOps int       // ops the simulated-clock sample covers
	simLat []float64 // their simulated latencies, sorted
	simUS  float64   // simulated span of the timed phase, µs
	before counters
	atSim  counters // after exactly simOps ops of the timed phase
	after  counters

	attempted int
	failed    int
	firstErr  error

	spans          []span
	nspans         int
	simGCFrac      float64 // sum GCTime / sum Latency (ssd rung)
	peakGoroutines int
	vol            volume.Counters
}

// setUp builds rung r for w, fills it and runs the warm-up part of the op
// stream, leaving a driver ready for the timed phase.
func setUp(w *workload, r rung, p params) (*stack, *driver, error) {
	st, err := buildStack(w, r, p)
	if err != nil {
		return nil, nil, err
	}
	gen := newGenerator(w, p.seed, st.space)
	d := newDriver(w, r, st.tgt, gen)
	d.fill()
	// A read-only stream would otherwise run over a freshly, sequentially
	// filled device whatever the seed: scatter part of it first.
	gen.writeFrac = 1
	for i, n := 0, p.scaled(w.precond); i < n; i++ {
		d.issue(gen.next())
	}
	gen.writeFrac = w.writeFrac
	d.setDepth(w.depth)
	gen.clock = st.idleAt()
	for i, n := 0, p.scaled(w.warmOps); i < n; i++ {
		d.issue(gen.next())
	}
	d.drain()
	if d.failed > 0 {
		st.close()
		return nil, nil, fmt.Errorf("%s/%s set-up: %d of %d ops failed, first: %w", w.name, r, d.failed, d.attempted, d.firstErr)
	}
	return st, d, nil
}

// nullTarget is a device that remembers only versions: the stand-in the
// harness calibrates its own cost against, and the fake the checker tests
// corrupt.
type nullTarget struct {
	gen     *generator
	keep    bool
	ops     []op     // per slot
	bufs    [][]byte // per slot: the payload a read returns
	corrupt func(data []byte)
}

func newNullTarget(w *workload, gen *generator, keep bool) *nullTarget {
	t := &nullTarget{gen: gen, keep: keep, ops: make([]op, maxDepth), bufs: make([][]byte, maxDepth)}
	for i := range t.bufs {
		t.bufs[i] = make([]byte, w.payload)
	}
	return t
}

func (t *nullTarget) borrows() bool { return t.keep }

func (t *nullTarget) start(slot int, o op, _ []byte) error {
	t.ops[slot] = o
	return nil
}

func (t *nullTarget) wait(slot int) (result, error) {
	o, buf := t.ops[slot], t.bufs[slot]
	if o.write {
		return result{}, nil
	}
	stamp(buf, o.lpn, t.gen.ver[o.lpn])
	if t.corrupt != nil {
		t.corrupt(buf)
	}
	return result{data: buf}, nil
}

// calibrate measures what the harness itself allocates per op by driving
// the same generator and driver against a target that does nothing.
func calibrate(w *workload, r rung, borrows bool) [2]float64 {
	const n = 1 << 16
	gen := newGenerator(w, 1, 1<<12)
	d := newDriver(w, r, newNullTarget(w, gen, borrows), gen)
	d.lat = make([]uint32, 0, n)
	d.sample = r.sample()
	d.fill()
	d.setDepth(w.depth)
	u0 := readUsage()
	for i := 0; i < n; i++ {
		d.issue(gen.next())
	}
	d.drain()
	u1 := readUsage()
	return [2]float64{float64(u1.mallocs-u0.mallocs) / n, float64(u1.bytes-u0.bytes) / n}
}

// watchGoroutines samples the goroutine count at 10 Hz until stop is
// closed, then sends the peak.
func watchGoroutines(stop <-chan struct{}, peak chan<- int) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	n := runtime.NumGoroutine()
	for {
		select {
		case <-tick.C:
			n = max(n, runtime.NumGoroutine())
		case <-stop:
			peak <- n
			return
		}
	}
}

// newMeasurement sizes a run's windows and allocates the buffers its timed
// phase appends to. The end-to-end run calls it before the first set-up,
// while the heap is untouched: a large allocation then arrives from the OS
// unzeroed-because-fresh and becomes resident only as it is written. Made
// later it may land on recycled memory that the runtime must clear — all of
// it resident at once — and max_rss_mb would take one of two values.
func newMeasurement(w *workload, r rung, p params) *measurement {
	m := &measurement{sample: r.sample()}
	m.winOps = max(p.scaled(w.winOps)/m.sample, 1) * m.sample // whole samples per window
	m.simOps = max(p.scaled(w.simOps), 1)
	// Room for 300k timed ops a second, a few times what any rung does on
	// this class of machine, so appends in the timed phase do not reallocate.
	m.lat = make([]uint32, 0, int(p.seconds*3e5)+m.winOps)
	m.simLat = make([]float64, 0, m.simOps)
	return m
}

// measure runs one rung of one workload into m: set-up (timed from
// setupStart), the timed phase in windows of a fixed op count until
// p.seconds have passed and the simulated-clock sample is complete, the
// read-back sweep, the invariant checks and teardown.
func measure(m *measurement, w *workload, r rung, p params, setupStart time.Time) (err error) {
	st, d, err := setUp(w, r, p)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s/%s teardown: %w", w.name, r, cerr)
		}
	}()
	d.lat, d.simLat, d.simCap = m.lat, m.simLat, m.simOps
	sst, _ := st.tgt.(*ssdTarget)
	if p.trace {
		d.spans = make([]span, 1<<16)
		d.kinds = make([]bool, 0, cap(d.lat))
	}
	m.cal = calibrate(w, r, st.tgt.borrows())
	runtime.GC()
	stop, peak := make(chan struct{}), make(chan int)
	go watchGoroutines(stop, peak)
	if sst != nil {
		sst.gcUS, sst.latUS = 0, 0
	}
	m.before = st.counters()
	sim0 := d.gen.clock
	d.sample = m.sample
	base := d.next
	m.setupS = time.Since(setupStart).Seconds()

	m.start = readUsage()
	last := m.start.wall
	for i := 0; ; i++ {
		if i == m.simOps {
			// Quiesce, so that the simulated-clock sample covers exactly the
			// first simOps ops whatever order a server ran them in.
			d.drain()
			m.atSim = st.counters()
		}
		if i%m.winOps == 0 && i > 0 {
			now := time.Now()
			m.winS = append(m.winS, now.Sub(last).Seconds())
			last = now
			if now.Sub(m.start.wall).Seconds() >= p.seconds && i >= m.simOps {
				break
			}
		}
		d.issue(d.gen.next())
	}
	m.end = readUsage()
	m.ops = d.next - base
	d.drain()
	m.spans, m.nspans = d.spans, d.nspans
	d.sample, d.spans = 0, nil
	close(stop)
	m.peakGoroutines = <-peak
	m.simUS = d.gen.clock - sim0
	m.after = st.counters()

	d.sweep(min(sweepLPNs, int(st.space)))
	st.eachFTL(func(i int, f *ftl.FTL) {
		if err := f.CheckInvariants(); err != nil {
			d.fail(fmt.Errorf("device %d: %w", i, err))
		}
	})
	for i, srv := range st.srvs {
		if s := srv.Stats(); s.Accepted != s.Responses {
			d.fail(fmt.Errorf("server %d: accepted %d != responses %d", i, s.Accepted, s.Responses))
		}
	}
	if st.proxy != nil {
		if s := st.proxy.Stats(); s.Accepted != s.Responses {
			d.fail(fmt.Errorf("proxy: accepted %d != responses %d", s.Accepted, s.Responses))
		}
	}
	if st.vol != nil {
		m.vol = st.vol.ClusterStat().Volume
	}
	m.lat = d.lat[:min(len(d.lat), m.ops/m.sample)]
	m.kinds = d.kinds
	sort.Float64s(d.simLat)
	m.simLat = d.simLat
	m.attempted, m.failed, m.firstErr = d.attempted, d.failed, d.firstErr
	if sst != nil {
		m.simGCFrac = ratio(sst.gcUS, sst.latUS)
	}
	return nil
}

// endToEnd is the untraced run of a workload's top rung. The set-up is
// done setupReps times, each from scratch, so that setup_s is a median; the
// last stack is the one measured.
func endToEnd(w *workload, p params) (*measurement, error) {
	m := newMeasurement(w, w.top, p)
	setups := make([]float64, 0, setupReps)
	start := procStart
	for i := 1; i < setupReps; i++ {
		st, _, err := setUp(w, w.top, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := st.close(); err != nil {
			return nil, err
		}
		// Return the discarded stack's memory, so max_rss_mb is one stack's.
		debug.FreeOSMemory()
		start = time.Now()
	}
	if err := measure(m, w, w.top, p, start); err != nil {
		return nil, err
	}
	m.setupS = median(append(setups, m.setupS))
	return m, nil
}
