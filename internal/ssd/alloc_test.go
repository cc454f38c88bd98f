package ssd

import (
	"testing"

	"superfast/internal/flash"
	"superfast/internal/pv"
)

// TestConcurrentSubmitAllocs pins the telemetry-disabled Submit path at zero
// heap objects for a READ and for a 4 KiB WRITE (the flushes and GC the
// writes trigger included). The request and its completion live on the
// caller's stack, the run list and per-run tables come from the pooled submit
// scratch, the digest's reorder buffer reuses its slots, and the flash array
// and latency kernel run allocation-free in steady state. The write payload
// is the caller's and is not counted. The limit leaves one object of slack
// for a sync.Pool refill after a GC. A rise here means something on the
// per-request path started allocating again.
func TestConcurrentSubmitAllocs(t *testing.T) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12 // room for random-LPN write churn under GC
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	d, err := NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4<<10)
	capacity := d.FTL().Capacity()
	i := int64(0)
	for _, op := range []struct {
		name string
		req  func() Request
	}{
		{"READ", func() Request { return Request{Kind: OpRead, LPN: 7} }},
		{"4 KiB WRITE", func() Request { return Request{Kind: OpWrite, LPN: i * 2654435761 % capacity, Data: page} }},
	} {
		submit := func() {
			if _, err := d.Submit(op.req()); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for n := 0; n < 2*int(capacity); n++ {
			submit()
		}
		n := testing.AllocsPerRun(500, submit)
		t.Logf("%s Submit: %.0f allocs", op.name, n)
		if n > 1 {
			t.Errorf("telemetry-disabled %s Submit allocates %.1f objects, want ≤ 1", op.name, n)
		}
	}
}
