package pv

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestKernelMatchesModelBitForBit is the equivalence property the whole
// latency kernel rests on: for random coordinates, P/E counts, nonces and
// operating temperatures, the cached path must reproduce the direct model
// bit-for-bit — including the quantize and floor steps, which round away
// nothing only if every intermediate float is identical.
func TestKernelMatchesModelBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	temps := []float64{25, 25, -10, 70, 33.5} // 25 = TempRef: the dt==0 branch
	for ti, temp := range temps {
		p := DefaultParams()
		p.Seed = 0xfeed_0000 + uint64(ti)
		p.Layers = 16
		p.Strings = 4
		p.Temperature = temp
		m := New(p)
		const chips, planes, blocks = 5, 2, 12
		k := m.Kernel(chips, planes, blocks)
		for i := 0; i < 2000; i++ {
			c := Coord{
				Chip:   rng.Intn(chips),
				Plane:  rng.Intn(planes),
				Block:  rng.Intn(blocks),
				Layer:  rng.Intn(p.Layers),
				String: rng.Intn(p.Strings),
			}
			pe := rng.Intn(12000)
			nonce := rng.Uint64()
			if got, want := k.ProgramLatency(c, pe, nonce), m.ProgramLatency(c, pe, nonce); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("temp %v: ProgramLatency(%+v, pe=%d, nonce=%#x) = %v (bits %#x), direct %v (bits %#x)",
					temp, c, pe, nonce, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := k.EraseLatency(c.Chip, c.Plane, c.Block, pe, nonce), m.EraseLatency(c.Chip, c.Plane, c.Block, pe, nonce); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("temp %v: EraseLatency(%d,%d,%d, pe=%d, nonce=%#x) = %v, direct %v",
					temp, c.Chip, c.Plane, c.Block, pe, nonce, got, want)
			}
			pt := PageType(rng.Intn(int(NumPageTypes)))
			if got, want := k.ReadLatency(c, pt, nonce), m.ReadLatency(c, pt, nonce); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("temp %v: ReadLatency(%+v, %v, nonce=%#x) = %v, direct %v", temp, c, pt, nonce, got, want)
			}
			if got, want := k.Endurance(c.Chip, c.Plane, c.Block), m.Endurance(c.Chip, c.Plane, c.Block); got != want {
				t.Fatalf("temp %v: Endurance(%d,%d,%d) = %d, direct %d", temp, c.Chip, c.Plane, c.Block, got, want)
			}
			ret := rng.Float64() * 3
			if got, want := k.RBER(c, pe, ret), m.RBER(c, pe, ret); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("temp %v: RBER(%+v, pe=%d, ret=%v) = %v, direct %v", temp, c, pe, ret, got, want)
			}
		}
	}
}

// TestKernelZeroSigmaBranches pins the guard branches (jitter sigmas at zero,
// quantization off, endurance disabled) that the dynamic path must skip
// exactly as the direct methods do.
func TestKernelZeroSigmaBranches(t *testing.T) {
	p := DefaultParams()
	p.Layers = 8
	p.Strings = 2
	p.PgmJitterSigma = 0
	p.PgmWearNoise = 0
	p.ErsJitterSigma = 0
	p.ReadJitter = 0
	p.PgmStep = 0
	p.ErsStep = 0
	p.EnduranceBase = 0
	m := New(p)
	k := m.Kernel(2, 1, 4)
	c := Coord{Chip: 1, Plane: 0, Block: 3, Layer: 5, String: 1}
	for _, pe := range []int{0, 777} {
		if got, want := k.ProgramLatency(c, pe, 9), m.ProgramLatency(c, pe, 9); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ProgramLatency pe=%d: kernel %v, direct %v", pe, got, want)
		}
		if got, want := k.EraseLatency(1, 0, 3, pe, 9), m.EraseLatency(1, 0, 3, pe, 9); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EraseLatency pe=%d: kernel %v, direct %v", pe, got, want)
		}
	}
	if got, want := k.ReadLatency(c, MSB, 9), m.ReadLatency(c, MSB, 9); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ReadLatency: kernel %v, direct %v", got, want)
	}
	if got, want := k.Endurance(1, 0, 3), m.Endurance(1, 0, 3); got != want {
		t.Fatalf("Endurance: kernel %d, direct %d", got, want)
	}
}

// TestKernelOutOfRangeFallsBack checks that coordinates beyond the kernel's
// geometry are answered by the direct model rather than a panic, so a kernel
// is always a safe drop-in for the model it wraps.
func TestKernelOutOfRangeFallsBack(t *testing.T) {
	p := DefaultParams()
	p.Layers = 4
	p.Strings = 2
	m := New(p)
	k := m.Kernel(2, 1, 4)
	c := Coord{Chip: 7, Plane: 3, Block: 99, Layer: 3, String: 1}
	if got, want := k.ProgramLatency(c, 10, 1), m.ProgramLatency(c, 10, 1); got != want {
		t.Fatalf("out-of-range ProgramLatency: kernel %v, direct %v", got, want)
	}
	if got, want := k.EraseLatency(7, 3, 99, 10, 1), m.EraseLatency(7, 3, 99, 10, 1); got != want {
		t.Fatalf("out-of-range EraseLatency: kernel %v, direct %v", got, want)
	}
	if got, want := k.ReadLatency(c, LSB, 1), m.ReadLatency(c, LSB, 1); got != want {
		t.Fatalf("out-of-range ReadLatency: kernel %v, direct %v", got, want)
	}
}

// TestKernelMemoized checks that one model hands out one kernel per geometry.
func TestKernelMemoized(t *testing.T) {
	p := DefaultParams()
	p.Layers = 4
	p.Strings = 2
	m := New(p)
	a := m.Kernel(2, 1, 4)
	if b := m.Kernel(2, 1, 4); a != b {
		t.Fatal("same dimensions returned a different kernel")
	}
	if b := m.Kernel(2, 2, 4); a == b {
		t.Fatal("different dimensions returned the same kernel")
	}
}

// TestKernelConcurrentFill hammers one kernel from many goroutines (the
// ConcurrentDevice access pattern) and checks every answer against the
// direct model; `go test -race` makes this a data-race probe of the
// CAS-published tables too.
func TestKernelConcurrentFill(t *testing.T) {
	p := DefaultParams()
	p.Layers = 8
	p.Strings = 4
	m := New(p)
	const chips, planes, blocks = 4, 2, 8
	k := m.Kernel(chips, planes, blocks)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				c := Coord{
					Chip:   rng.Intn(chips),
					Plane:  rng.Intn(planes),
					Block:  rng.Intn(blocks),
					Layer:  rng.Intn(p.Layers),
					String: rng.Intn(p.Strings),
				}
				pe, nonce := rng.Intn(5000), rng.Uint64()
				if got, want := k.ProgramLatency(c, pe, nonce), m.ProgramLatency(c, pe, nonce); math.Float64bits(got) != math.Float64bits(want) {
					select {
					case errs <- "concurrent ProgramLatency diverged from direct model":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestKernelReadTable: a block's read table is built by whichever reader
// touches it first, so two readers that arrive together race to publish it.
// Both must see the direct model's ReadLatency bit for bit at every layer,
// string and page type, and a layer or string outside the kernel's geometry
// must fall back to the model instead of indexing the table.
func TestKernelReadTable(t *testing.T) {
	p := DefaultParams()
	p.Layers = 6
	p.Strings = 4
	m := New(p)
	k := m.Kernel(2, 2, 4)
	const chip, plane, block = 1, 0, 3
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for layer := 0; layer < p.Layers; layer++ {
				for s := 0; s < p.Strings; s++ {
					for ty := PageType(0); ty < NumPageTypes; ty++ {
						c := Coord{Chip: chip, Plane: plane, Block: block, Layer: layer, String: s}
						nonce := uint64(w*1000 + layer*10 + s)
						if got, want := k.ReadLatency(c, ty, nonce), m.ReadLatency(c, ty, nonce); math.Float64bits(got) != math.Float64bits(want) {
							errs <- fmt.Sprintf("ReadLatency(%+v, %v): kernel %v, direct %v", c, ty, got, want)
							return
						}
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	for _, c := range []Coord{
		{Chip: chip, Plane: plane, Block: block, Layer: p.Layers, String: 0},
		{Chip: chip, Plane: plane, Block: block, Layer: -1, String: 0},
		{Chip: chip, Plane: plane, Block: block, Layer: 0, String: p.Strings},
		{Chip: chip, Plane: plane, Block: block, Layer: 0, String: -1},
	} {
		if got, want := k.ReadLatency(c, MSB, 5), m.ReadLatency(c, MSB, 5); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("out-of-range ReadLatency(%+v): kernel %v, direct %v", c, got, want)
		}
	}
}
