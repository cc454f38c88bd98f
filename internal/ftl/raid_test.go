package ftl

import (
	"errors"
	"testing"

	"superfast/internal/flash"
	"superfast/internal/prng"
	"superfast/internal/pv"
)

func raidConfig() Config {
	cfg := testConfig()
	cfg.RAID = true
	return cfg
}

func TestRAIDCapacityReduced(t *testing.T) {
	plain := newFTL(t, testConfig())
	raid := newFTL(t, raidConfig())
	lanes := int64(plain.geo.Lanes())
	want := plain.Capacity() * (lanes - 1) / lanes
	// Allow rounding slack of one page.
	diff := raid.Capacity() - want
	if diff < -1 || diff > 1 {
		t.Fatalf("RAID capacity %d, want ≈%d", raid.Capacity(), want)
	}
}

func TestRAIDRejectsSingleLane(t *testing.T) {
	g := flash.TestGeometry()
	g.Chips = 1
	g.PlanesPerChip = 1
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := raidConfig()
	if _, err := New(arr, cfg); err == nil {
		t.Fatal("RAID over one lane should fail")
	}
}

func TestRAIDRoundTrip(t *testing.T) {
	f := newFTL(t, raidConfig())
	for lpn := int64(0); lpn < 200; lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 200; lpn++ {
		r, err := f.Read(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if string(r.Data) != string(payload(lpn, 0)) {
			t.Fatalf("lpn %d corrupted", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// corruptPageOf injects an uncorrectable fault under one mapped lpn.
func corruptPageOf(t *testing.T, f *FTL, lpn int64) {
	t.Helper()
	ppn := f.l2p[lpn]
	if ppn < 0 {
		t.Fatalf("lpn %d unmapped", lpn)
	}
	addr, lwl, typ := f.ppnLocate(ppn)
	if err := f.arr.InjectCorruption(flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: typ}); err != nil {
		t.Fatal(err)
	}
}

func TestRAIDReconstructsCorruptedPage(t *testing.T) {
	f := newFTL(t, raidConfig())
	for lpn := int64(0); lpn < 100; lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptPageOf(t, f, 42)
	r, err := f.Read(42)
	if err != nil {
		t.Fatalf("RAID read should reconstruct: %v", err)
	}
	if string(r.Data) != string(payload(42, 0)) {
		t.Fatalf("reconstructed %q, want %q", r.Data, payload(42, 0))
	}
	if f.Stats().RAIDRepairs != 1 {
		t.Fatalf("RAIDRepairs = %d, want 1", f.Stats().RAIDRepairs)
	}
}

func TestRAIDWithoutItFails(t *testing.T) {
	f := newFTL(t, testConfig()) // RAID off
	for lpn := int64(0); lpn < 50; lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptPageOf(t, f, 10)
	if _, err := f.Read(10); !errors.Is(err, flash.ErrUncorrectable) {
		t.Fatalf("got %v, want ErrUncorrectable without RAID", err)
	}
}

func TestRAIDDoubleFaultIsDataLoss(t *testing.T) {
	f := newFTL(t, raidConfig())
	for lpn := int64(0); lpn < 100; lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a page and one of its super-word-line peers.
	corruptPageOf(t, f, 42)
	ppn := f.l2p[42]
	addr, lwl, typ := f.ppnLocate(ppn)
	sb := f.sbOf(addr)
	for _, m := range sb.members {
		if m == addr {
			continue
		}
		if err := f.arr.InjectCorruption(flash.PageAddr{BlockAddr: m, LWL: lwl, Type: typ}); err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := f.Read(42); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("got %v, want ErrDataLoss", err)
	}
}

func TestRAIDSurvivesGCChurn(t *testing.T) {
	f := newFTL(t, raidConfig())
	gen := fillAndChurn(t, f, 1.5, 77)
	if f.Stats().GCRuns == 0 {
		t.Fatal("churn should trigger GC")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	src := prng.New(7)
	for i := 0; i < 150; i++ {
		lpn := int64(src.Intn(int(f.Capacity())))
		r, err := f.Read(lpn)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if string(r.Data) != string(payload(lpn, gen[lpn])) {
			t.Fatalf("lpn %d corrupted under RAID+GC", lpn)
		}
	}
}

func TestRAIDParityRotates(t *testing.T) {
	f := newFTL(t, raidConfig())
	nl := f.geo.Lanes()
	seen := map[int]bool{}
	for id := 0; id < nl*2; id++ {
		seen[f.parityLane(id, nl)] = true
	}
	if len(seen) != nl {
		t.Fatalf("parity used %d distinct lanes, want %d", len(seen), nl)
	}
	if f.parityLane(0, nl) == -1 {
		t.Fatal("parity lane should be assigned with RAID on")
	}
	plain := newFTL(t, testConfig())
	if plain.parityLane(0, nl) != -1 {
		t.Fatal("parity lane should be -1 with RAID off")
	}
}

func TestRAIDGCReadsReconstruct(t *testing.T) {
	// A corrupted page must survive garbage collection: the GC read path
	// reconstructs it before relocation.
	f := newFTL(t, raidConfig())
	for lpn := int64(0); lpn < 150; lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptPageOf(t, f, 99)
	// Force churn until GC relocates everything at least once.
	gen := map[int64]int{99: 0}
	src := prng.New(13)
	for i := 0; i < int(2*f.Capacity()); i++ {
		lpn := int64(src.Intn(int(f.Capacity())))
		if lpn == 99 {
			continue // keep the corrupted page cold so GC must move it
		}
		g := gen[lpn] + 1
		gen[lpn] = g
		if _, err := f.Write(lpn, payload(lpn, g)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := f.Read(99)
	if err != nil {
		t.Fatalf("cold corrupted page lost: %v", err)
	}
	if string(r.Data) != string(payload(99, 0)) {
		t.Fatalf("lpn 99 = %q", r.Data)
	}
}

func TestParityCodecProperties(t *testing.T) {
	// XOR codec: any member reconstructs from the others plus parity.
	members := [][]byte{
		[]byte("alpha"), []byte("bb"), []byte(""), []byte("delta-long-payload"),
	}
	parity := buildParity(members)
	for fail := range members {
		width := len(parity)
		acc := make([]byte, width)
		xorInto(acc, parity)
		for i, m := range members {
			if i == fail {
				continue
			}
			xorInto(acc, encodeForParity(m, width))
		}
		got, err := decodeParity(acc)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(members[fail]) {
			t.Fatalf("member %d reconstructed as %q, want %q", fail, got, members[fail])
		}
	}
}

func TestDecodeParityErrors(t *testing.T) {
	if _, err := decodeParity([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should fail")
	}
	if _, err := decodeParity([]byte{255, 255, 0, 0}); err == nil {
		t.Fatal("oversized length should fail")
	}
}
