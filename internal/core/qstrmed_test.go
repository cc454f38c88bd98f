package core

import (
	"errors"
	"testing"
	"testing/quick"

	"superfast/internal/assembly"
	"superfast/internal/flash"
	"superfast/internal/profile"
	"superfast/internal/pv"
)

func testGeo() flash.Geometry {
	g := flash.TestGeometry()
	return g
}

func testScheme(t testing.TB) *Scheme {
	t.Helper()
	s, err := NewScheme(testGeo(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedAll characterizes and frees every block of every lane with synthetic
// metadata derived from the pv model.
func seedAll(t testing.TB, s *Scheme, seed uint64) {
	t.Helper()
	g := testGeo()
	p := pv.DefaultParams()
	p.Seed = seed
	p.Layers = g.Layers
	p.Strings = g.Strings
	m := pv.New(p)
	for chip := 0; chip < g.Chips; chip++ {
		for plane := 0; plane < g.PlanesPerChip; plane++ {
			for b := 0; b < g.BlocksPerPlane; b++ {
				lwl := make([]float64, g.LWLsPerBlock())
				for layer := 0; layer < g.Layers; layer++ {
					for str := 0; str < g.Strings; str++ {
						lwl[g.LWLIndex(layer, str)] = m.ProgramLatency(pv.Coord{
							Chip: chip, Plane: plane, Block: b, Layer: layer, String: str,
						}, 0, 1)
					}
				}
				bp := profile.NewBlockProfile(0, b, g.Layers, g.Strings, lwl, 0, 0)
				addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: b}
				s.Seed(addr, bp.PgmSum, profile.EigenFromProfile(bp))
				if err := s.AddFree(addr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestNewSchemeValidation(t *testing.T) {
	if _, err := NewScheme(flash.Geometry{}, 4); err == nil {
		t.Fatal("invalid geometry should fail")
	}
	if _, err := NewScheme(testGeo(), 0); err == nil {
		t.Fatal("window 0 should fail")
	}
}

func TestSpeedFor(t *testing.T) {
	if SpeedFor(HostWrite) != Fast {
		t.Error("host writes should get fast superblocks")
	}
	if SpeedFor(GCWrite) != Slow {
		t.Error("GC writes should get slow superblocks")
	}
	if Fast.String() != "FAST" || Slow.String() != "SLOW" {
		t.Error("Speed names wrong")
	}
	if HostWrite.String() != "host" || GCWrite.String() != "gc" {
		t.Error("WriteClass names wrong")
	}
}

func TestAssembleFastPicksGlobalFastestReference(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 7)
	// Find the globally fastest block.
	g := testGeo()
	members, err := s.Assemble(Fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != g.Lanes() {
		t.Fatalf("got %d members, want %d", len(members), g.Lanes())
	}
	seen := map[int]bool{}
	for _, m := range members {
		l := m.Lane(g)
		if seen[l] {
			t.Fatalf("two members on lane %d", l)
		}
		seen[l] = true
	}
}

func TestAssembleFastVsSlowOrdering(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 11)
	fast, err := s.Assemble(Fast)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.Assemble(Slow)
	if err != nil {
		t.Fatal(err)
	}
	sumKey := func(members []flash.BlockAddr) float64 {
		var total float64
		for _, m := range members {
			total += s.info(m).pgmSum
		}
		return total
	}
	if sumKey(fast) >= sumKey(slow) {
		t.Fatalf("fast superblock (%v) should be faster than slow (%v)", sumKey(fast), sumKey(slow))
	}
}

func TestAssembleExhaustsPool(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 13)
	g := testGeo()
	total := s.FreeCount()
	if total != g.BlocksPerPlane {
		t.Fatalf("FreeCount = %d, want %d", total, g.BlocksPerPlane)
	}
	used := make(map[flash.BlockAddr]bool)
	for i := 0; i < total; i++ {
		members, err := s.Assemble(Fast)
		if err != nil {
			t.Fatalf("superblock %d: %v", i, err)
		}
		for _, m := range members {
			if used[m] {
				t.Fatalf("block %v used twice", m)
			}
			used[m] = true
		}
	}
	if _, err := s.Assemble(Fast); !errors.Is(err, ErrLaneEmpty) {
		t.Fatalf("empty pool should fail with ErrLaneEmpty, got %v", err)
	}
	if s.Assembled() != total {
		t.Fatalf("Assembled = %d, want %d", s.Assembled(), total)
	}
}

func TestPairCheckBudget(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 17)
	before := s.PairChecks()
	if _, err := s.Assemble(Fast); err != nil {
		t.Fatal(err)
	}
	checks := s.PairChecks() - before
	g := testGeo()
	want := (g.Lanes() - 1) * s.K()
	if checks != want {
		t.Fatalf("pair checks per superblock = %d, want %d ((lanes-1)×K, §VI-B2)", checks, want)
	}
}

func TestAddFreeValidation(t *testing.T) {
	s := testScheme(t)
	addr := flash.BlockAddr{Chip: 0, Plane: 0, Block: 1}
	if err := s.AddFree(addr); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFree(addr); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free should fail, got %v", err)
	}
	if err := s.AddFree(flash.BlockAddr{Block: -1}); err == nil {
		t.Fatal("negative block should fail")
	}
	if err := s.AddFree(flash.BlockAddr{Chip: 99}); err == nil {
		t.Fatal("out-of-range chip should fail")
	}
}

func TestGatheringBuildsMetadata(t *testing.T) {
	g := testGeo()
	s, err := NewScheme(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	addr := flash.BlockAddr{Chip: 1, Plane: 0, Block: 5}
	if s.Known(addr) {
		t.Fatal("block should start unknown")
	}
	var sum float64
	for lwl := 0; lwl < g.LWLsPerBlock(); lwl++ {
		lat := 1600 + float64(lwl%7)*6.1
		sum += lat
		if err := s.NoteProgram(addr, lwl, lat); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Known(addr) {
		t.Fatal("block should be known after full program")
	}
	bi := s.info(addr)
	if bi.pgmSum != sum {
		t.Fatalf("gathered sum = %v, want %v", bi.pgmSum, sum)
	}
	if bi.eigen.Len() != g.LWLsPerBlock() {
		t.Fatalf("eigen length = %d, want %d", bi.eigen.Len(), g.LWLsPerBlock())
	}
}

func TestGatheringMatchesOfflineEigen(t *testing.T) {
	// The runtime gatherer must produce exactly the eigen sequence the
	// offline profile derivation produces for the same latencies.
	g := testGeo()
	s, err := NewScheme(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	m := pv.New(p)
	addr := flash.BlockAddr{Chip: 2, Plane: 1, Block: 9}
	lwl := make([]float64, g.LWLsPerBlock())
	for i := 0; i < g.LWLsPerBlock(); i++ {
		layer, str := g.LayerString(i)
		lwl[i] = m.ProgramLatency(pv.Coord{Chip: 2, Plane: 1, Block: 9, Layer: layer, String: str}, 0, 1)
		if err := s.NoteProgram(addr, i, lwl[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := profile.EigenFromProfile(profile.NewBlockProfile(0, 9, g.Layers, g.Strings, lwl, 0, 0))
	got := s.info(addr).eigen
	if got.Distance(want) != 0 {
		t.Fatalf("runtime eigen %s differs from offline eigen %s", got, want)
	}
}

func TestGatheringMidBlockAttachSkipped(t *testing.T) {
	g := testGeo()
	s, _ := NewScheme(g, 4)
	addr := flash.BlockAddr{Block: 3}
	// First observation is word-line 5: the gatherer must skip the pass.
	if err := s.NoteProgram(addr, 5, 1600); err != nil {
		t.Fatal(err)
	}
	for lwl := 6; lwl < g.LWLsPerBlock(); lwl++ {
		if err := s.NoteProgram(addr, lwl, 1600); err != nil {
			t.Fatal(err)
		}
	}
	if s.Known(addr) {
		t.Fatal("partially observed block must stay unknown")
	}
}

func TestGatheringOutOfOrderAbandons(t *testing.T) {
	g := testGeo()
	s, _ := NewScheme(g, 4)
	addr := flash.BlockAddr{Block: 4}
	if err := s.NoteProgram(addr, 0, 1600); err != nil {
		t.Fatal(err)
	}
	if err := s.NoteProgram(addr, 2, 1600); err != nil { // skips 1
		t.Fatal(err)
	}
	for _, g := range s.open {
		if g != nil {
			t.Fatal("out-of-order pass should be abandoned")
		}
	}
	if err := s.NoteProgram(addr, -1, 0); err == nil {
		t.Fatal("negative word-line should fail")
	}
	if err := s.NoteProgram(flash.BlockAddr{Block: g.BlocksPerPlane}, 0, 1600); err == nil {
		t.Fatal("out-of-range block should fail")
	}
}

func TestColdStartUnknownBlocksSortLast(t *testing.T) {
	s := testScheme(t)
	g := testGeo()
	// Seed one known fast block per lane and one unknown block per lane.
	for lane := 0; lane < g.Lanes(); lane++ {
		known := flash.BlockAddr{Chip: lane / g.PlanesPerChip, Plane: lane % g.PlanesPerChip, Block: 0}
		unknown := flash.BlockAddr{Chip: lane / g.PlanesPerChip, Plane: lane % g.PlanesPerChip, Block: 1}
		s.Seed(known, 600000, profile.NewEigenBuilder(g.LWLsPerBlock()))
		if err := s.AddFree(known); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFree(unknown); err != nil {
			t.Fatal(err)
		}
	}
	members, err := s.Assemble(Fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if m.Block != 0 {
			t.Fatalf("fast assembly picked unknown block %v over known fast block", m)
		}
	}
}

func TestMemoryFootprintEquation2(t *testing.T) {
	// Paper §VI-D1: 384 logical word-lines → 48 bytes of eigen bits + 4
	// bytes of latency = 52 bytes per block.
	g := flash.PaperGeometry()
	perBlock := MemoryFootprintBytes(g) / g.TotalBlocks()
	if perBlock != 52 {
		t.Fatalf("per-block footprint = %d bytes, want 52", perBlock)
	}
	// A 1 TB SSD with 8 MB blocks has ~131,072 blocks → ~6.5 MB.
	ssd := flash.Geometry{
		Chips: 8, PlanesPerChip: 4, BlocksPerPlane: 4096,
		Layers: 96, Strings: 4, PageSize: 16 * 1024, SpareSize: 2 * 1024,
	}
	total := MemoryFootprintBytes(ssd)
	mb := float64(total) / (1 << 20)
	if mb < 6.0 || mb > 7.0 {
		t.Fatalf("1TB-class footprint = %.2f MB, want ≈6.5 MB", mb)
	}
}

func TestBatchAssemblerPartition(t *testing.T) {
	lanes := batchLanes(t, 4, 16, 23)
	res, err := BatchAssembler{K: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := assembly.CheckPartition(lanes, res.Superblocks); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAssemblerPairChecks(t *testing.T) {
	// With 4 lanes and K=4, each full superblock costs 12 checks.
	lanes := batchLanes(t, 4, 8, 29)
	res, err := BatchAssembler{K: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	// 8 superblocks; the last few have shrunken pools:
	// pools per lane: 8,7,6,5 → 12 checks; 4 → 12; 3 → 9; 2 → 6; 1 → 3.
	want := 12 + 12 + 12 + 12 + 12 + 9 + 6 + 3
	if res.PairChecks != want {
		t.Fatalf("PairChecks = %d, want %d", res.PairChecks, want)
	}
}

func TestBatchAssemblerOverheadVsSTRMed(t *testing.T) {
	// §VI-B2: QSTR-MED reduces the per-superblock check count from 1,536
	// to 12 — a 99.22% reduction.
	lanes := batchLanes(t, 4, 12, 31)
	q, err := BatchAssembler{K: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	s, err := assembly.STRMedian{Window: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	reduction := 1 - float64(q.PairChecks)/float64(s.PairChecks)
	if reduction < 0.95 {
		t.Fatalf("overhead reduction = %.4f, want > 0.95", reduction)
	}
}

func TestBatchAssemblerValidation(t *testing.T) {
	if _, err := (BatchAssembler{K: 4}).Assemble(nil); err == nil {
		t.Fatal("empty lanes should fail")
	}
	lanes := batchLanes(t, 2, 4, 3)
	if _, err := (BatchAssembler{K: 0}).Assemble(lanes); err == nil {
		t.Fatal("K=0 should fail")
	}
	lanes[1].Blocks = lanes[1].Blocks[:2]
	if _, err := (BatchAssembler{K: 4}).Assemble(lanes); err == nil {
		t.Fatal("ragged lanes should fail")
	}
}

func TestBatchAssemblerBeatsRandom(t *testing.T) {
	lanes := batchLanes(t, 4, 64, 37)
	q, err := BatchAssembler{K: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := assembly.Random{Seed: 3}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := assembly.Evaluate(lanes, q.Superblocks)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := assembly.Evaluate(lanes, r.Superblocks)
	if err != nil {
		t.Fatal(err)
	}
	if mq.MeanPgm >= mr.MeanPgm {
		t.Fatalf("QSTR-MED (%v) should beat random (%v)", mq.MeanPgm, mr.MeanPgm)
	}
}

// batchLanes builds assembly lanes from the pv model.
func batchLanes(t testing.TB, nLanes, nBlocks int, seed uint64) []assembly.Lane {
	t.Helper()
	p := pv.DefaultParams()
	p.Seed = seed
	p.Layers = 12
	p.Strings = 4
	m := pv.New(p)
	lanes := make([]assembly.Lane, nLanes)
	for l := 0; l < nLanes; l++ {
		blocks := make([]*profile.BlockProfile, nBlocks)
		for b := 0; b < nBlocks; b++ {
			lwl := make([]float64, p.Layers*p.Strings)
			for layer := 0; layer < p.Layers; layer++ {
				for s := 0; s < p.Strings; s++ {
					lwl[layer*p.Strings+s] = m.ProgramLatency(pv.Coord{
						Chip: l, Block: b, Layer: layer, String: s,
					}, 0, 1)
				}
			}
			blocks[b] = profile.NewBlockProfile(l, b, p.Layers, p.Strings, lwl, m.EraseLatency(l, 0, b, 0, 1), 0)
		}
		lanes[l] = assembly.Lane{ID: l, Blocks: blocks}
	}
	return lanes
}

func BenchmarkSchemeAssemble(b *testing.B) {
	g := testGeo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewScheme(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		seedAll(b, s, 7)
		b.StartTimer()
		for s.FreeCount() > 0 {
			if _, err := s.Assemble(Fast); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestRetireRemovesFromPool(t *testing.T) {
	s := testScheme(t)
	addr := flash.BlockAddr{Chip: 1, Plane: 1, Block: 3}
	if err := s.AddFree(addr); err != nil {
		t.Fatal(err)
	}
	if err := s.Retire(addr); err != nil {
		t.Fatal(err)
	}
	if !s.Retired(addr) {
		t.Fatal("block should be retired")
	}
	if s.lane(addr).free.Len() != 0 {
		t.Fatal("retired block should leave the free pool")
	}
	if err := s.AddFree(addr); !errors.Is(err, ErrRetired) {
		t.Fatalf("freeing a retired block: got %v, want ErrRetired", err)
	}
	if err := s.Retire(flash.BlockAddr{Block: -1}); err == nil {
		t.Fatal("out-of-range retire should fail")
	}
}

func TestAssembleSkipsRetiredBlocks(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 53)
	g := testGeo()
	// Retire the head (fastest) block of lane 0; assembly must never pick it.
	head := s.lanes[0].free.At(0)
	retiredAddr := s.addrOf(0, head.Block)
	if err := s.Retire(retiredAddr); err != nil {
		t.Fatal(err)
	}
	for s.FreeCount() > 0 {
		members, err := s.Assemble(Fast)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			if m == retiredAddr {
				t.Fatal("assembly picked a retired block")
			}
		}
	}
	_ = g
}

func TestAssembleArbitrarySelector(t *testing.T) {
	s := testScheme(t)
	seedAll(t, s, 59)
	members, err := s.AssembleArbitrary(func(entries []profile.Entry) int { return len(entries) - 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != testGeo().Lanes() {
		t.Fatalf("got %d members", len(members))
	}
	// Out-of-range selector is rejected.
	if _, err := s.AssembleArbitrary(func(entries []profile.Entry) int { return -1 }); err == nil {
		t.Fatal("negative selector index should fail")
	}
}

func TestAssemblePartitionProperty(t *testing.T) {
	// For any seed and window, on-demand assembly partitions the free pool:
	// every block used exactly once, every superblock one block per lane.
	f := func(seed uint64, kRaw uint8, slow bool) bool {
		g := testGeo()
		k := 1 + int(kRaw)%8
		s, err := NewScheme(g, k)
		if err != nil {
			return false
		}
		seedAll(t, s, seed)
		speed := Fast
		if slow {
			speed = Slow
		}
		used := map[flash.BlockAddr]bool{}
		count := 0
		for s.FreeCount() > 0 {
			members, err := s.Assemble(speed)
			if err != nil {
				return false
			}
			if len(members) != g.Lanes() {
				return false
			}
			lanes := map[int]bool{}
			for _, m := range members {
				if used[m] || lanes[m.Lane(g)] {
					return false
				}
				used[m] = true
				lanes[m.Lane(g)] = true
			}
			count++
		}
		return count == g.BlocksPerPlane && len(used) == g.BlocksPerPlane*g.Lanes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	// Any metadata state survives Snapshot/Restore bit-for-bit (within the
	// 4-byte latency storage of Equation 2).
	f := func(seed uint64, retireRaw uint8) bool {
		g := testGeo()
		s, err := NewScheme(g, 4)
		if err != nil {
			return false
		}
		seedAll(t, s, seed)
		retired := flash.BlockAddr{
			Chip:  int(retireRaw) % g.Chips,
			Plane: int(retireRaw/4) % g.PlanesPerChip,
			Block: int(retireRaw) % g.BlocksPerPlane,
		}
		if err := s.Retire(retired); err != nil {
			return false
		}
		fresh, err := NewScheme(g, 4)
		if err != nil {
			return false
		}
		if err := fresh.RestoreSnapshot(s.Snapshot()); err != nil {
			return false
		}
		for lane := 0; lane < g.Lanes(); lane++ {
			chip, plane := g.LaneChipPlane(lane)
			for b := 0; b < g.BlocksPerPlane; b++ {
				addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: b}
				a, z := s.info(addr), fresh.info(addr)
				if a.known != z.known || a.retired != z.retired {
					return false
				}
				if a.known && (float32(a.pgmSum) != float32(z.pgmSum) || a.eigen.Distance(z.eigen) != 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedForExhaustive(t *testing.T) {
	f := func(raw uint8) bool {
		c := WriteClass(int(raw) % 2)
		sp := SpeedFor(c)
		return (c == HostWrite && sp == Fast) || (c == GCWrite && sp == Slow)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
