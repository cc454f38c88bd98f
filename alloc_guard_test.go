package superfast_test

import (
	"testing"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
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
	page := make([]byte, 4<<10)
	i := int64(0)
	read := func() {
		if _, err := cl.Read(i % capacity); err != nil {
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
		name string
		fn   func()
	}{{"READ", read}, {"4 KiB WRITE", write}} {
		// AllocsPerRun warms up with one call; the write pass before it lets
		// the device's buffer circulation settle as in TestFTLChurnAllocFree.
		for n := 0; n < 2000; n++ {
			op.fn()
		}
		if n := testing.AllocsPerRun(2000, op.fn); n > 4 {
			t.Errorf("loopback %s round trip allocates %.0f objects, want <= 4", op.name, n)
		} else {
			t.Logf("loopback %s round trip: %.0f allocs", op.name, n)
		}
	}
}
