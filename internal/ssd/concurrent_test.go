package ssd

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superfast/internal/flash"
	"superfast/internal/pv"
	"superfast/internal/telemetry"
)

func concurrentDevice(t testing.TB) *ConcurrentDevice {
	t.Helper()
	return concurrentDeviceCfg(t, nil)
}

func concurrentDeviceCfg(t testing.TB, tweak func(*Config)) *ConcurrentDevice {
	t.Helper()
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	if tweak != nil {
		tweak(&cfg)
	}
	d, err := NewConcurrent(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// replayTickets drives reqs through the device with the given number of
// submitter goroutines, using pre-reserved tickets to pin the trace order.
func replayTickets(t testing.TB, d *ConcurrentDevice, reqs []Request, depth int) []Completion {
	t.Helper()
	first := d.ReserveBatch(len(reqs))
	out := make([]Completion, len(reqs))
	var next int64 = -1
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(len(reqs)) {
					return
				}
				c, err := d.SubmitTicket(first+uint64(i), reqs[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				out[i] = c
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return out
}

func TestConcurrentWriteReadTrim(t *testing.T) {
	d := concurrentDevice(t)
	w, err := d.Submit(Request{Kind: OpWrite, LPN: 1, Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if w.Latency < 0 {
		t.Fatalf("latency %v", w.Latency)
	}
	r, err := d.Submit(Request{Kind: OpRead, LPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "hello" {
		t.Fatalf("read %q", r.Data)
	}
	if _, err := d.Submit(Request{Kind: OpTrim, LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(Request{Kind: OpRead, LPN: 1}); err == nil {
		t.Fatal("read after trim should fail")
	}
	if _, err := d.Submit(Request{Kind: OpKind(9)}); err == nil {
		t.Fatal("unknown op should fail")
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.Trims != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func readTrace(d *ConcurrentDevice, n int) []Request {
	base := d.Now() + 1000
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: OpRead, LPN: int64(i), Arrival: base + float64(i)}
	}
	return reqs
}

func TestConcurrentDepthIndependence(t *testing.T) {
	// The same stamped trace replayed at depth 1 and depth 8 must yield
	// bit-identical completions and merged statistics: tickets pin the FTL
	// order and dispatch order pins every chip schedule.
	run := func(depth int) ([]Completion, Stats, telemetry.DigestSnapshot) {
		d := concurrentDeviceCfg(t, func(cfg *Config) { cfg.RetainLatencies = true })
		if err := d.FillSequential(nil); err != nil {
			t.Fatal(err)
		}
		comps := replayTickets(t, d, readTrace(d, 48), depth)
		return comps, d.Stats(), d.LatencyDigest()
	}
	c1, s1, d1 := run(1)
	c8, s8, d8 := run(8)
	if !reflect.DeepEqual(c1, c8) {
		t.Fatal("depth-8 completions differ from depth-1")
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("depth-8 stats differ from depth-1:\n%+v\n%+v", s1, s8)
	}
	// The streaming digest consumes observations in ticket order (reorder
	// buffer), so even the P² marker state must be depth-independent.
	if d1 != d8 {
		t.Fatalf("depth-8 latency digest differs from depth-1:\n%+v\n%+v", d1, d8)
	}
}

func TestConcurrentMatchesSerialPerChip(t *testing.T) {
	// On a stamped read-only trace submitted in order, the concurrent front
	// end reduces to the serial Device's per-chip model: same per-chip busy
	// schedules, so the same completion times.
	cd := concurrentDevice(t)
	if err := cd.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	sd := perChipDevice(t)
	if err := sd.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	base := cd.Now()
	if n := sd.Now(); n > base {
		base = n
	}
	base += 1000
	for i := 0; i < 24; i++ {
		req := Request{Kind: OpRead, LPN: int64(i), Arrival: base + float64(i)*2}
		cc, err := cd.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sd.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if cc.Finish != sc.Finish || cc.Latency != sc.Latency {
			t.Fatalf("read %d: concurrent %+v vs serial per-chip %+v", i, cc, sc)
		}
	}
}

func TestConcurrentReadThroughputAtLeast2x(t *testing.T) {
	// Acceptance: a burst of same-instant reads spread over the chips must
	// finish at least 2× faster through the sharded front end than through
	// the serialized Device.
	sd := testDevice(t)
	if err := sd.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	base := sd.Now() + 1000
	var serialFinish float64
	const n = 64
	for i := 0; i < n; i++ {
		c, err := sd.Submit(Request{Kind: OpRead, LPN: int64(i), Arrival: base})
		if err != nil {
			t.Fatal(err)
		}
		if c.Finish > serialFinish {
			serialFinish = c.Finish
		}
	}
	serialSpan := serialFinish - base

	cd := concurrentDevice(t)
	if err := cd.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	cbase := cd.Now() + 1000
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: OpRead, LPN: int64(i), Arrival: cbase}
	}
	comps := replayTickets(t, cd, reqs, 8)
	var concFinish float64
	for _, c := range comps {
		if c.Finish > concFinish {
			concFinish = c.Finish
		}
	}
	concSpan := concFinish - cbase
	if concSpan <= 0 {
		t.Fatalf("concurrent span %v", concSpan)
	}
	if serialSpan < 2*concSpan {
		t.Fatalf("concurrent front end span %v µs vs serialized %v µs: want ≥2× speedup", concSpan, serialSpan)
	}
}

func TestConcurrentDeviceRace(t *testing.T) {
	// Many goroutines hammer plain Submit while others poll Stats and
	// ChipStats; run under -race this is the data-race canary.
	d := concurrentDevice(t)
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lpn := int64((w*perWorker + i) % 64)
				var err error
				if i%3 == 0 {
					_, err = d.Submit(Request{Kind: OpWrite, LPN: lpn, Data: []byte{byte(w), byte(i)}})
				} else {
					_, err = d.Submit(Request{Kind: OpRead, LPN: lpn})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = d.Stats()
					_ = d.ChipStats()
					_ = d.Now()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s := d.Stats()
	if got := int(s.Requests); got < workers*perWorker {
		t.Fatalf("requests %d, want at least %d", got, workers*perWorker)
	}
	if err := d.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitMixedWithReservedTickets: plain Submit takes its ticket inside
// the FTL-stage critical section, so it may share a device with callers that
// Reserve tickets and submit them out of order. Half the goroutines Submit;
// the other half reserve two tickets and submit the later one first, from a
// helper goroutine. Every write must be served exactly once, the digest must
// observe each, and nothing may deadlock.
func TestSubmitMixedWithReservedTickets(t *testing.T) {
	d := concurrentDevice(t)
	const goroutines, perG = 8, 64 // perG even: ticket goroutines submit pairs
	page := func(lpn int64) []byte { return []byte{byte(lpn), byte(lpn >> 8), 0x5a} }
	write := func(lpn int64) Request { return Request{Kind: OpWrite, LPN: lpn, Data: page(lpn)} }
	var served [goroutines * perG]atomic.Int32
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			base := int64(g * perG)
			note := func(lpn int64, err error) error {
				served[lpn].Add(1)
				return err
			}
			for i := int64(0); i < perG; i += 2 {
				a, b := base+i, base+i+1
				if g%2 == 0 {
					for _, lpn := range []int64{a, b} {
						if _, err := d.Submit(write(lpn)); note(lpn, err) != nil {
							done <- err
							return
						}
					}
					continue
				}
				ta, tb := d.Reserve(), d.Reserve()
				later := make(chan error, 1)
				go func() {
					_, err := d.SubmitTicket(tb, write(b))
					later <- note(b, err)
				}()
				_, err := d.SubmitTicket(ta, write(a))
				if err = note(a, err); err == nil {
					err = <-later
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	deadline := time.After(30 * time.Second)
	for g := 0; g < goroutines; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("submitters deadlocked")
		}
	}
	const total = goroutines * perG
	for lpn := range served {
		if n := served[lpn].Load(); n != 1 {
			t.Fatalf("write to LPN %d served %d times", lpn, n)
		}
		c, err := d.Submit(Request{Kind: OpRead, LPN: int64(lpn)})
		if err != nil || !bytes.Equal(c.Data, page(int64(lpn))) {
			t.Fatalf("LPN %d reads %v, %v", lpn, c.Data, err)
		}
	}
	if s := d.Stats(); s.Writes != total {
		t.Errorf("device counted %d writes, want %d", s.Writes, total)
	}
	if n := d.LatencyDigest().N; n != 2*total {
		t.Errorf("digest observed %d latencies, want %d", n, 2*total)
	}
}

func TestConcurrentBatchCoalescesWrites(t *testing.T) {
	// A batch of adjacent-LPN writes spanning exactly one super word line
	// coalesces: one buffer flush, every member sharing the flush's finish.
	d := concurrentDevice(t)
	g := d.FTL().Geometry()
	n := g.Lanes() * flash.PagesPerLWL
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: OpWrite, LPN: int64(i), Data: []byte{byte(i)}, Arrival: 100}
	}
	comps, err := d.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.FTL().Stats().Flushes; got != 1 {
		t.Fatalf("flushes = %d, want 1 (one coalesced super-WL program)", got)
	}
	for i, c := range comps {
		if c.Finish != comps[0].Finish {
			t.Fatalf("member %d finish %v differs from run finish %v", i, c.Finish, comps[0].Finish)
		}
	}
}

func TestConcurrentBatchCoalescesReads(t *testing.T) {
	// Adjacent-LPN reads in one batch become a multi-plane range read: the
	// members share one finish, data stays correct, and the run costs less
	// than the same reads issued one by one.
	fillPayload := func(lpn int64) []byte { return []byte{byte(lpn), byte(lpn >> 8)} }

	d := concurrentDevice(t)
	if err := d.FillSequential(fillPayload); err != nil {
		t.Fatal(err)
	}
	base := d.Now() + 1000
	n := 8
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: OpRead, LPN: int64(i), Arrival: base}
	}
	comps, err := d.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var batchSpan float64
	for i, c := range comps {
		want := fillPayload(int64(i))
		if string(c.Data) != string(want) {
			t.Fatalf("read %d returned %v, want %v", i, c.Data, want)
		}
		if c.Finish != comps[0].Finish {
			t.Fatalf("member %d finish %v differs from run finish %v", i, c.Finish, comps[0].Finish)
		}
		if s := c.Finish - base; s > batchSpan {
			batchSpan = s
		}
	}

	single := concurrentDevice(t)
	if err := single.FillSequential(fillPayload); err != nil {
		t.Fatal(err)
	}
	sbase := single.Now() + 1000
	var singleFinish float64
	for i := 0; i < n; i++ {
		c, err := single.Submit(Request{Kind: OpRead, LPN: int64(i), Arrival: sbase})
		if err != nil {
			t.Fatal(err)
		}
		if c.Finish > singleFinish {
			singleFinish = c.Finish
		}
	}
	if singleSpan := singleFinish - sbase; batchSpan >= singleSpan {
		t.Fatalf("coalesced batch span %v should beat one-by-one span %v", batchSpan, singleSpan)
	}
}

func TestConcurrentStatsMergeOrder(t *testing.T) {
	// Latencies must come back in arrival order no matter which worker
	// finished first: submit a stamped trace at depth 8 and compare the
	// merged Latencies against the per-completion latencies in trace order.
	d := concurrentDeviceCfg(t, func(cfg *Config) { cfg.RetainLatencies = true })
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	fillCount := len(d.Stats().Latencies)
	reqs := readTrace(d, 32)
	comps := replayTickets(t, d, reqs, 8)
	lat := d.Stats().Latencies[fillCount:]
	if len(lat) != len(comps) {
		t.Fatalf("got %d latencies for %d completions", len(lat), len(comps))
	}
	for i, c := range comps {
		if lat[i] != c.Latency {
			t.Fatalf("latency %d = %v, want %v (arrival order)", i, lat[i], c.Latency)
		}
	}
}

func TestConcurrentFillSequential(t *testing.T) {
	d := concurrentDevice(t)
	if err := d.FillSequential(func(lpn int64) []byte { return []byte{byte(lpn)} }); err != nil {
		t.Fatal(err)
	}
	r, err := d.Submit(Request{Kind: OpRead, LPN: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 1 || r.Data[0] != 5 {
		t.Fatalf("read %v", r.Data)
	}
	if err := d.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cs := d.ChipStats()
	if len(cs) != d.FTL().Geometry().Chips {
		t.Fatalf("chip stats for %d chips", len(cs))
	}
	for _, c := range cs {
		if c.Ops == 0 || c.Busy <= 0 {
			t.Fatalf("chip %d idle after fill: %+v", c.Chip, c)
		}
	}
}

func TestNewConcurrentValidation(t *testing.T) {
	g := flash.TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := DefaultConfig()
	cfg.BusMBps = 0
	if _, err := NewConcurrent(arr, cfg); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
}
