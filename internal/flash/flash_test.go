package flash

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"superfast/internal/prng"
	"superfast/internal/pv"
)

func testArray(t testing.TB) *Array {
	t.Helper()
	g := TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	a, err := NewArray(g, pv.New(p), DefaultECC())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	if err := PaperGeometry().Validate(); err != nil {
		t.Fatalf("paper geometry invalid: %v", err)
	}
	if err := TestGeometry().Validate(); err != nil {
		t.Fatalf("test geometry invalid: %v", err)
	}
	bad := TestGeometry()
	bad.Chips = 0
	if bad.Validate() == nil {
		t.Fatal("zero chips should be invalid")
	}
	bad = TestGeometry()
	bad.SpareSize = -1
	if bad.Validate() == nil {
		t.Fatal("negative spare should be invalid")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := PaperGeometry()
	if got := g.LWLsPerBlock(); got != 384 {
		t.Errorf("LWLsPerBlock = %d, want 384", got)
	}
	if got := g.PagesPerBlock(); got != 1152 {
		t.Errorf("PagesPerBlock = %d, want 1152 (paper §VI-A)", got)
	}
	if got := g.Lanes(); got != 96 {
		t.Errorf("Lanes = %d, want 96", got)
	}
}

func TestLWLIndexRoundTrip(t *testing.T) {
	g := TestGeometry()
	f := func(lwl uint16) bool {
		i := int(lwl) % g.LWLsPerBlock()
		l, s := g.LayerString(i)
		return g.LWLIndex(l, s) == i && l >= 0 && l < g.Layers && s >= 0 && s < g.Strings
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewArrayGeometryMismatch(t *testing.T) {
	g := TestGeometry()
	p := pv.DefaultParams() // 96 layers, geometry has 24
	if _, err := NewArray(g, pv.New(p), DefaultECC()); err == nil {
		t.Fatal("expected geometry mismatch error")
	}
}

func TestEraseProgramReadCycle(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 1, Plane: 0, Block: 3}
	if _, err := a.Erase(addr); err != nil {
		t.Fatal(err)
	}
	payload := [][]byte{[]byte("lsb-data"), []byte("csb-data"), []byte("msb-data")}
	lat, err := a.Program(addr, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("program latency = %v, want > 0", lat)
	}
	for tp := 0; tp < PagesPerLWL; tp++ {
		res, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.PageType(tp)})
		if err != nil {
			t.Fatalf("read type %d: %v", tp, err)
		}
		if !bytes.Equal(res.Data, payload[tp]) {
			t.Fatalf("read type %d = %q, want %q", tp, res.Data, payload[tp])
		}
		if res.Latency <= 0 {
			t.Fatalf("read latency = %v", res.Latency)
		}
	}
}

func TestProgramRequiresErase(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{}
	// A fresh block starts erased (nextLWL 0), so program once, then try to
	// reprogram the same word-line.
	if _, err := a.Program(addr, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(addr, 0, nil); !errors.Is(err, ErrAlreadyWritten) {
		t.Fatalf("reprogram should fail with ErrAlreadyWritten, got %v", err)
	}
}

func TestProgramSequentialOrder(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Block: 1}
	if _, err := a.Program(addr, 2, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skipping word-lines should fail, got %v", err)
	}
	if _, err := a.Program(addr, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(addr, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := a.NextLWL(addr); got != 2 {
		t.Fatalf("NextLWL = %d, want 2", got)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 2, Plane: 1, Block: 7}
	if _, err := a.Program(addr, 0, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(addr); err != nil {
		t.Fatal(err)
	}
	if got := a.NextLWL(addr); got != 0 {
		t.Fatalf("NextLWL after erase = %d, want 0", got)
	}
	_, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("read after erase should fail with ErrNotProgrammed, got %v", err)
	}
	pe, _ := a.PECycles(addr)
	if pe != 1 {
		t.Fatalf("PECycles = %d, want 1", pe)
	}
}

func TestReadUnprogrammed(t *testing.T) {
	a := testArray(t)
	_, err := a.Read(PageAddr{BlockAddr: BlockAddr{Block: 9}, LWL: 3, Type: pv.CSB})
	if !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("got %v, want ErrNotProgrammed", err)
	}
}

func TestBadAddresses(t *testing.T) {
	a := testArray(t)
	bad := []BlockAddr{
		{Chip: -1}, {Chip: 99}, {Plane: 99}, {Block: -5}, {Block: 9999},
	}
	for _, addr := range bad {
		if _, err := a.Erase(addr); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Erase(%v) = %v, want ErrBadAddress", addr, err)
		}
	}
	if _, err := a.Program(BlockAddr{}, -1, nil); !errors.Is(err, ErrBadAddress) {
		t.Errorf("negative lwl: %v", err)
	}
	if _, err := a.Program(BlockAddr{}, a.Geometry().LWLsPerBlock(), nil); !errors.Is(err, ErrBadAddress) {
		t.Errorf("lwl too large: %v", err)
	}
	if _, err := a.Read(PageAddr{BlockAddr: BlockAddr{}, LWL: 0, Type: pv.NumPageTypes}); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad page type: %v", err)
	}
}

func TestMultiPlaneEraseMaxSemantics(t *testing.T) {
	a := testArray(t)
	addrs := []BlockAddr{
		{Chip: 0, Plane: 0, Block: 1},
		{Chip: 1, Plane: 0, Block: 2},
		{Chip: 2, Plane: 0, Block: 3},
		{Chip: 3, Plane: 0, Block: 4},
	}
	res, err := a.EraseMulti(addrs)
	if err != nil {
		t.Fatal(err)
	}
	max, min := res.PerMember[0], res.PerMember[0]
	for _, v := range res.PerMember {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if res.Latency != max {
		t.Errorf("Latency = %v, want max %v", res.Latency, max)
	}
	if res.Extra != max-min {
		t.Errorf("Extra = %v, want %v", res.Extra, max-min)
	}
	if res.Extra < 0 {
		t.Error("Extra must be non-negative")
	}
}

func TestMultiPlaneLaneConflict(t *testing.T) {
	a := testArray(t)
	addrs := []BlockAddr{
		{Chip: 0, Plane: 0, Block: 1},
		{Chip: 0, Plane: 0, Block: 2}, // same lane
	}
	if _, err := a.EraseMulti(addrs); !errors.Is(err, ErrLaneConflict) {
		t.Fatalf("got %v, want ErrLaneConflict", err)
	}
	if _, err := a.EraseMulti(nil); !errors.Is(err, ErrEmptyMultiOp) {
		t.Fatalf("got %v, want ErrEmptyMultiOp", err)
	}
}

func TestMultiPlaneProgram(t *testing.T) {
	a := testArray(t)
	addrs := []BlockAddr{
		{Chip: 0, Plane: 1, Block: 5},
		{Chip: 1, Plane: 1, Block: 6},
	}
	pages := [][][]byte{
		{[]byte("a0"), []byte("a1"), []byte("a2")},
		{[]byte("b0"), []byte("b1"), []byte("b2")},
	}
	res, err := a.ProgramMulti(addrs, 0, pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerMember) != 2 || res.Latency <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	r, err := a.Read(PageAddr{BlockAddr: addrs[1], LWL: 0, Type: pv.CSB})
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "b1" {
		t.Fatalf("read back %q, want b1", r.Data)
	}
	if _, err := a.ProgramMulti(addrs, 1, [][][]byte{{[]byte("x")}}); err == nil {
		t.Fatal("mismatched page-set count should fail")
	}
}

func TestLWLLatenciesRecorded(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 3, Plane: 1, Block: 0}
	want := make([]float64, 3)
	for lwl := 0; lwl < 3; lwl++ {
		lat, err := a.Program(addr, lwl, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[lwl] = lat
	}
	got, err := a.LWLLatencies(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got[i] != want[i] {
			t.Errorf("lwl %d latency = %v, want %v", i, got[i], want[i])
		}
	}
	if got[3] != 0 {
		t.Errorf("unprogrammed lwl latency = %v, want 0", got[3])
	}
}

func TestCounters(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Block: 12}
	if _, err := a.Erase(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(addr, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB}); err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Erases != 1 || c.Programs != 1 || c.Reads != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.EraseTime <= 0 || c.ProgramTime <= 0 || c.ReadTime <= 0 {
		t.Fatalf("times not accumulated: %+v", c)
	}
}

func TestSetPECyclesAffectsLatency(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 1, Plane: 1, Block: 20}
	if err := a.SetPECycles(addr, 3000); err != nil {
		t.Fatal(err)
	}
	pe, _ := a.PECycles(addr)
	if pe != 3000 {
		t.Fatalf("PECycles = %d", pe)
	}
	if err := a.SetPECycles(addr, -1); err == nil {
		t.Fatal("negative P/E should fail")
	}
}

func TestRetentionIncreasesErrors(t *testing.T) {
	g := TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	p.RBERBase = 4e-5
	a := MustNewArray(g, pv.New(p), ECCConfig{CorrectableBits: 2, RetryBits: 100000, RetryPenalty: 50, MaxRetries: 2})
	addr := BlockAddr{Block: 2}
	if _, err := a.Program(addr, 0, [][]byte{[]byte("d")}); err != nil {
		t.Fatal(err)
	}
	r1, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	a.AddRetention(6)
	r2, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ErrBits <= r1.ErrBits {
		t.Fatalf("retention should raise error bits: before=%d after=%d", r1.ErrBits, r2.ErrBits)
	}
}

func TestUncorrectableRead(t *testing.T) {
	g := TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	p.RBERBase = 1e-3
	a := MustNewArray(g, pv.New(p), ECCConfig{CorrectableBits: 1, RetryBits: 2, RetryPenalty: 50, MaxRetries: 2})
	addr := BlockAddr{Block: 4}
	if _, err := a.Program(addr, 0, [][]byte{[]byte("d")}); err != nil {
		t.Fatal(err)
	}
	_, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("got %v, want ErrUncorrectable", err)
	}
	if a.Counters().ReadFails != 1 {
		t.Fatalf("ReadFails = %d, want 1", a.Counters().ReadFails)
	}
}

func TestProgramFullBlock(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 2, Plane: 0, Block: 11}
	n := a.Geometry().LWLsPerBlock()
	for lwl := 0; lwl < n; lwl++ {
		if _, err := a.Program(addr, lwl, nil); err != nil {
			t.Fatalf("lwl %d: %v", lwl, err)
		}
	}
	if !a.IsFull(addr) {
		t.Fatal("block should be full")
	}
	if _, err := a.Program(addr, n-1, nil); err == nil {
		t.Fatal("programming a full block should fail")
	}
}

func TestProgramTooManyPages(t *testing.T) {
	a := testArray(t)
	pages := make([][]byte, PagesPerLWL+1)
	if _, err := a.Program(BlockAddr{Block: 6}, 0, pages); err == nil {
		t.Fatal("too many pages should fail")
	}
}

func TestDataIsolationAfterProgram(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Block: 8}
	buf := []byte("mutate-me")
	if _, err := a.Program(addr, 0, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	r, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "mutate-me" {
		t.Fatalf("stored data aliased caller buffer: %q", r.Data)
	}
}

func TestReadWriteProperty(t *testing.T) {
	a := testArray(t)
	g := a.Geometry()
	type op struct {
		Block uint8
		Data  []byte
	}
	cursor := map[BlockAddr]int{}
	f := func(ops []op) bool {
		for _, o := range ops {
			addr := BlockAddr{
				Chip:  int(o.Block) % g.Chips,
				Plane: (int(o.Block) / g.Chips) % g.PlanesPerChip,
				Block: int(o.Block) % g.BlocksPerPlane,
			}
			lwl := cursor[addr]
			if lwl >= g.LWLsPerBlock() {
				if _, err := a.Erase(addr); err != nil {
					return false
				}
				lwl = 0
			}
			if _, err := a.Program(addr, lwl, [][]byte{o.Data}); err != nil {
				return false
			}
			cursor[addr] = lwl + 1
			r, err := a.Read(PageAddr{BlockAddr: addr, LWL: lwl, Type: pv.LSB})
			if err != nil {
				return false
			}
			if !bytes.Equal(r.Data, o.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProgramWordLine(b *testing.B) {
	g := TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	p.EnduranceBase = 0 // the benchmark cycles one block far past any real endurance
	a := MustNewArray(g, pv.New(p), DefaultECC())
	addr := BlockAddr{}
	lwl := 0
	for i := 0; i < b.N; i++ {
		if lwl == g.LWLsPerBlock() {
			if _, err := a.Erase(addr); err != nil {
				b.Fatal(err)
			}
			lwl = 0
		}
		if _, err := a.Program(addr, lwl, nil); err != nil {
			b.Fatal(err)
		}
		lwl++
	}
}

func TestReadMultiSuperpage(t *testing.T) {
	a := testArray(t)
	blocks := []BlockAddr{
		{Chip: 0, Plane: 0, Block: 3},
		{Chip: 1, Plane: 0, Block: 4},
		{Chip: 2, Plane: 0, Block: 5},
	}
	for i, b := range blocks {
		if _, err := a.Program(b, 0, [][]byte{[]byte{byte(i)}, nil, nil}); err != nil {
			t.Fatal(err)
		}
	}
	pages := make([]PageAddr, len(blocks))
	for i, b := range blocks {
		pages[i] = PageAddr{BlockAddr: b, LWL: 0, Type: pv.LSB}
	}
	results, op, err := a.ReadMulti(pages)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r.Data) != 1 || r.Data[0] != byte(i) {
			t.Fatalf("member %d read %v", i, r.Data)
		}
	}
	max := results[0].Latency
	for _, r := range results {
		if r.Latency > max {
			max = r.Latency
		}
	}
	if op.Latency != max {
		t.Fatalf("superpage read latency %v, want max %v", op.Latency, max)
	}
	if op.Extra < 0 {
		t.Fatal("negative extra latency")
	}
}

func TestReadMultiErrors(t *testing.T) {
	a := testArray(t)
	if _, _, err := a.ReadMulti(nil); !errors.Is(err, ErrEmptyMultiOp) {
		t.Fatalf("got %v", err)
	}
	dup := []PageAddr{
		{BlockAddr: BlockAddr{Block: 1}},
		{BlockAddr: BlockAddr{Block: 2}},
	}
	if _, _, err := a.ReadMulti(dup); !errors.Is(err, ErrLaneConflict) {
		t.Fatalf("got %v", err)
	}
	unprogrammed := []PageAddr{{BlockAddr: BlockAddr{Block: 1}, LWL: 0, Type: pv.LSB}}
	if _, _, err := a.ReadMulti(unprogrammed); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("got %v", err)
	}
}

func TestRetentionResetsOnFirstProgram(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Block: 14}
	a.AddRetention(6)
	// First program after the bake starts a fresh data age.
	if _, err := a.Program(addr, 0, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	fresh, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	// An already-programmed block keeps aging.
	a.AddRetention(6)
	aged, err := a.Read(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	if aged.ErrBits <= fresh.ErrBits {
		t.Fatalf("bake after program should raise errors: %d -> %d", fresh.ErrBits, aged.ErrBits)
	}
}

func TestProgramOOBRoundTrip(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Chip: 1, Plane: 1, Block: 9}
	oob := [][]byte{[]byte("tag0"), nil, []byte("tag2")}
	if _, err := a.ProgramOOB(addr, 0, nil, oob); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadOOB(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tag0" {
		t.Fatalf("oob = %q", got)
	}
	got, err = a.ReadOOB(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.CSB})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("missing oob should be nil, got %q", got)
	}
	// Erase clears the spare area.
	if _, err := a.Erase(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadOOB(PageAddr{BlockAddr: addr, LWL: 0, Type: pv.LSB}); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("got %v", err)
	}
}

func TestProgramOOBValidation(t *testing.T) {
	a := testArray(t)
	addr := BlockAddr{Block: 7}
	big := make([]byte, a.Geometry().SpareSize+1)
	if _, err := a.ProgramOOB(addr, 0, nil, [][]byte{big}); err == nil {
		t.Fatal("oversized oob should fail")
	}
	if _, err := a.ProgramOOB(addr, 0, nil, make([][]byte, PagesPerLWL+1)); err == nil {
		t.Fatal("too many oob entries should fail")
	}
	if _, err := a.ReadOOB(PageAddr{BlockAddr: BlockAddr{Chip: 99}}); !errors.Is(err, ErrBadAddress) {
		t.Fatal("bad address should fail")
	}
}

// TestErrBitsCacheFollowsWearAndRetention: a block keeps the moments of its
// error-bit distribution between reads. An erase (P/E+1) and a retention
// bake both change them, so the draws after each must still equal the
// uncached computation — a stale cached mean or σ would shift them.
func TestErrBitsCacheFollowsWearAndRetention(t *testing.T) {
	g := TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	p.RBERBase = 4e-3 // ~2,000 error bits a page at P/E 3000: one more cycle shifts the mean ~2 bits
	a := MustNewArray(g, pv.New(p), ECCConfig{CorrectableBits: 1 << 20, RetryBits: 1 << 20})
	addr := BlockAddr{Chip: 1, Plane: 1, Block: 2}
	// Reading the page and recomputing its draw from the model directly.
	check := func(when string) {
		t.Helper()
		b := &a.blocks[addr.Lane(g)*g.BlocksPerPlane+addr.Block]
		for lwl := 0; lwl < 2; lwl++ {
			for ty := pv.PageType(0); ty < pv.NumPageTypes; ty++ {
				r, err := a.Read(PageAddr{BlockAddr: addr, LWL: lwl, Type: ty})
				if err != nil {
					t.Fatal(err)
				}
				layer, str := g.LayerString(lwl)
				c := pv.Coord{Chip: addr.Chip, Plane: addr.Plane, Block: addr.Block, Layer: layer, String: str}
				rber := a.model.RBER(c, b.peCycles, b.retention)
				mean := rber * float64((g.PageSize+g.SpareSize)*8)
				h := prng.Hash(a.seed, 101, c.Chip, c.Plane, c.Block, c.Layer, c.String)
				want := int(max(0, mean+math.Sqrt(mean*(1-rber))*prng.NormalFromHash(prng.SplitMix64(h^a.opNonce))))
				if r.ErrBits != want {
					t.Fatalf("%s: lwl %d %v drew %d error bits, uncached %d", when, lwl, ty, r.ErrBits, want)
				}
			}
		}
	}
	program := func() {
		for lwl := 0; lwl < 2; lwl++ {
			if _, err := a.Program(addr, lwl, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.SetPECycles(addr, 3000); err != nil {
		t.Fatal(err)
	}
	program()
	check("fresh")
	if _, err := a.Erase(addr); err != nil {
		t.Fatal(err)
	}
	program()
	check("after an erase")
	a.AddRetention(4)
	check("after a retention bake")
}
