package superfast_test

import (
	"testing"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
)

// TestFTLChurnAllocFree pins BenchmarkFTLChurn's steady state at zero heap
// allocations per host write. Payload buffers circulate in a closed loop —
// writes move them from the recycle pool into flash pages, erases hand them
// back — so the fill pass must store real payloads (a nil fill leaves blocks
// that return fewer buffers than churn consumes and the pool keeps bottoming
// out), and two overwrite passes let the circulation ratchet up to
// self-sufficiency. After that a churning write (including the GC it
// triggers) must not allocate: journal entries, spare-area tags,
// open-superblock state, GC cursors and payload buffers all come back from
// erased blocks or the pools. AllocsPerRun averages over the whole run, so
// occasional pool-slice growth shows up as a fraction and the truncated
// result stays 0 only if the hot path is genuinely recycled.
func TestFTLChurnAllocFree(t *testing.T) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	dev, err := ssd.New(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("bench")
	if err := dev.FillSequential(func(int64) []byte { return payload }); err != nil {
		t.Fatal(err)
	}
	capacity := dev.FTL().Capacity()
	i := 0
	churn := func() {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: payload,
		}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm: two full overwrite passes populate the arenas via GC erases.
	for n := 0; n < 2*int(capacity); n++ {
		churn()
	}
	if n := testing.AllocsPerRun(500, churn); n > 0 {
		t.Errorf("steady-state churn write allocates %.2f objects/op, want 0", n)
	}
	if err := dev.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackRoundTripAllocs pins the wire path's allocation budget: a READ
// and a 4 KiB WRITE round trip over TCP loopback cost at most four heap
// objects each, client and server together (AllocsPerRun counts every
// goroutine's). What is left is the client's call slot, the decoded payload
// on the receiving side, and the device's copy of a page it returns; a
// response channel, a frame buffer or a goroutine per request would each
// show up here as one more.
func TestLoopbackRoundTripAllocs(t *testing.T) {
	cl, capacity := loopbackClient(t)
	checkRoundTripAllocs(t, "loopback", cl, capacity, capacity, 4, 4)
}

// TestProxyRoundTripAllocs pins the same budget one rung up: through the
// proxy and a 4-backend, 2-replica volume a READ is one leg and a WRITE two,
// over 4 KiB pages the test wrote itself (a read of a never-written page
// carries no payload and hides every payload slice on its way). On top of the
// loopback objects on each hop, an op costs the proxy its volume.Call (replica
// set and legs inline) and a client.Call per leg — and no goroutine, closure,
// placement slice or leg slice per op, and no payload slice of the proxy's own:
// a WRITE is forwarded from the connection's read buffer, a READ's page lands
// in a buffer the connection lends and takes back. Each of those would show up
// here as one more. Measured 5 and 8; the limits leave one spare.
func TestProxyRoundTripAllocs(t *testing.T) {
	const pages = 256
	cl, v := loopbackProxy(t, pages)
	maxRead, maxWrite := 6.0, 9.0
	if raceDetector {
		maxRead, maxWrite = 7, 11 // one object more per leg, see raceDetector
	}
	checkRoundTripAllocs(t, "proxied", cl, v.Space(), pages, maxRead, maxWrite)
}

// checkRoundTripAllocs measures the heap objects a READ of the first pages
// pages and a 4 KiB WRITE anywhere below capacity cost per round trip, every
// goroutine's counted, against their limits.
func checkRoundTripAllocs(t *testing.T, what string, cl *client.Client, capacity, pages int64, maxRead, maxWrite float64) {
	page := make([]byte, 4<<10)
	i := int64(0)
	read := func() {
		if _, err := cl.Read(i % pages); err != nil {
			t.Fatal(err)
		}
		i++
	}
	write := func() {
		if _, err := cl.Write(i*2654435761%capacity, page, ftl.HintNone); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for _, op := range []struct {
		name  string
		fn    func()
		limit float64
	}{{"READ", read, maxRead}, {"4 KiB WRITE", write, maxWrite}} {
		// AllocsPerRun warms up with one call; the write pass before it lets
		// the device's buffer circulation settle as in TestFTLChurnAllocFree.
		for n := 0; n < 2000; n++ {
			op.fn()
		}
		if n := testing.AllocsPerRun(2000, op.fn); n > op.limit {
			t.Errorf("%s %s round trip allocates %.0f objects, want <= %.0f", what, op.name, n, op.limit)
		} else {
			t.Logf("%s %s round trip: %.0f allocs", what, op.name, n)
		}
	}
}
