package telemetry

import (
	"bytes"
	"math"
	"testing"

	"superfast/internal/prng"
)

func TestAttributionChargesFirstSlowest(t *testing.T) {
	a := NewAttribution()
	members := []BlockKey{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}
	// Two members tie for slowest; the first one in member order is charged.
	a.Record('p', false, true, members, []float64{700, 900, 900, 650})
	r := a.Report(0)
	if len(r.Stragglers) != 4 {
		t.Fatalf("stragglers = %d, want 4 (every member has an ops row)", len(r.Stragglers))
	}
	top := r.Stragglers[0]
	if top.Block != "c0/p1/b1" {
		t.Fatalf("straggler = %s, want c0/p1/b1 (first member attaining the max)", top.Block)
	}
	if top.Straggles != 1 || top.ExtraUS != 250 {
		t.Fatalf("straggler row = %+v, want 1 straggle / 250 extra", top)
	}
	for _, row := range r.Stragglers {
		if row.Ops != 1 {
			t.Fatalf("block %s ops = %d, want 1", row.Block, row.Ops)
		}
	}
	if len(r.Lanes) != 1 || r.Lanes[0].Lane != "c0/p1" || r.Lanes[0].ExtraUS != 250 {
		t.Fatalf("lanes = %+v", r.Lanes)
	}
}

func TestAttributionSplitAndHistogram(t *testing.T) {
	a := NewAttribution()
	m2 := []BlockKey{{0, 0, 0}, {0, 1, 0}}
	a.Record('p', false, true, m2, []float64{100, 103})   // host fast program, extra 3
	a.Record('p', true, false, m2, []float64{100, 100})   // gc slow program, extra 0
	a.Record('e', true, false, m2, []float64{3000, 3900}) // gc slow erase, extra 900
	r := a.Report(0)

	wantSplit := []AttrSplit{
		{Source: "host", Class: "fast", Op: "program", Ops: 1, ExtraUS: 3},
		{Source: "gc", Class: "slow", Op: "program", Ops: 1, ExtraUS: 0},
		{Source: "gc", Class: "slow", Op: "erase", Ops: 1, ExtraUS: 900},
	}
	if len(r.Split) != len(wantSplit) {
		t.Fatalf("split = %+v", r.Split)
	}
	for _, w := range wantSplit {
		found := false
		for _, g := range r.Split {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("split missing %+v in %+v", w, r.Split)
		}
	}

	if r.Ops["program"] != 2 || r.Ops["erase"] != 1 {
		t.Fatalf("ops = %+v", r.Ops)
	}
	if r.ExtraUS["total"] != 903 {
		t.Fatalf("extra total = %v", r.ExtraUS["total"])
	}

	// Histogram: program got extra 3 → bucket [2,4) and extra 0 → [0,1);
	// erase got extra 900 → [512,1024).
	var pg, er *AttrHist
	for i := range r.Hist {
		switch r.Hist[i].Op {
		case "program":
			pg = &r.Hist[i]
		case "erase":
			er = &r.Hist[i]
		}
	}
	if pg == nil || er == nil {
		t.Fatalf("hist = %+v", r.Hist)
	}
	if len(pg.Buckets) != 2 || pg.Buckets[0] != (AttrBucket{0, 1, 1}) || pg.Buckets[1] != (AttrBucket{2, 4, 1}) {
		t.Fatalf("program hist = %+v", pg.Buckets)
	}
	if len(er.Buckets) != 1 || er.Buckets[0] != (AttrBucket{512, 1024, 1}) {
		t.Fatalf("erase hist = %+v", er.Buckets)
	}
}

func TestAttributionBlockSumMatchesTotal(t *testing.T) {
	a := NewAttribution()
	src := prng.New(9, 0xabc)
	members := make([]BlockKey, 4)
	lats := make([]float64, 4)
	for op := 0; op < 500; op++ {
		for i := range members {
			members[i] = BlockKey{Chip: i % 2, Plane: i / 2, Block: int(src.Uint64() % 8)}
			lats[i] = 500 + float64(src.Uint64()%1000)
		}
		kind := byte('p')
		if op%3 == 0 {
			kind = 'e'
		}
		a.Record(kind, op%2 == 0, op%5 == 0, members, lats)
	}
	r := a.Report(0)
	var blockSum, laneSum, splitSum float64
	for _, b := range r.Stragglers {
		blockSum += b.ExtraUS
	}
	for _, l := range r.Lanes {
		laneSum += l.ExtraUS
	}
	for _, s := range r.Split {
		splitSum += s.ExtraUS
	}
	total := a.TotalExtraUS()
	for name, got := range map[string]float64{"blocks": blockSum, "lanes": laneSum, "split": splitSum} {
		if math.Abs(got-total) > 1e-9*math.Max(1, total) {
			t.Fatalf("%s sum %v != total %v", name, got, total)
		}
	}
	if a.Ops() != 500 {
		t.Fatalf("ops = %d", a.Ops())
	}
	var histCount uint64
	for _, h := range r.Hist {
		for _, b := range h.Buckets {
			histCount += b.Count
		}
	}
	if histCount != 500 {
		t.Fatalf("hist count = %d, want 500", histCount)
	}
}

func TestAttributionTopKStable(t *testing.T) {
	a := NewAttribution()
	// Three commands with equal extra so the top-K cut is decided by address.
	for i := 0; i < 3; i++ {
		m := []BlockKey{{i, 0, 0}, {i, 1, 0}}
		a.Record('p', false, false, m, []float64{100, 150})
	}
	r := a.Report(2)
	if len(r.Stragglers) != 2 {
		t.Fatalf("topK rows = %d", len(r.Stragglers))
	}
	if r.Stragglers[0].Block != "c0/p1/b0" || r.Stragglers[1].Block != "c1/p1/b0" {
		t.Fatalf("topK cut not address-stable: %+v", r.Stragglers)
	}
}

func TestAttributionDegenerateRecords(t *testing.T) {
	a := NewAttribution()
	a.Record('p', false, false, nil, nil)
	a.Record('p', false, false, []BlockKey{{0, 0, 0}}, []float64{1, 2})
	if a.Ops() != 0 {
		t.Fatalf("degenerate records were counted: ops = %d", a.Ops())
	}
	// Single member: extra is zero but the op still counts.
	a.Record('e', false, false, []BlockKey{{0, 0, 0}}, []float64{3000})
	if a.Ops() != 1 || a.TotalExtraUS() != 0 {
		t.Fatalf("single-member op: ops=%d extra=%v", a.Ops(), a.TotalExtraUS())
	}
}

func TestAttributionJSONDeterministic(t *testing.T) {
	build := func() *Attribution {
		a := NewAttribution()
		src := prng.New(4, 0x77)
		members := make([]BlockKey, 4)
		lats := make([]float64, 4)
		for op := 0; op < 200; op++ {
			for i := range members {
				members[i] = BlockKey{Chip: int(src.Uint64() % 4), Plane: i % 2, Block: int(src.Uint64() % 16)}
				lats[i] = float64(src.Uint64() % 2000)
			}
			a.Record('p', op%4 == 0, op%2 == 0, members, lats)
		}
		return a
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1, 10); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("same record stream produced different JSON:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if b1.Len() == 0 {
		t.Fatal("empty report")
	}
}

func TestExtraBucketEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {0.999, 0},
		{1, 1}, {1.9, 1},
		{2, 2}, {3.99, 2},
		{4, 3},
		{1024, 11},
		{math.MaxFloat64, attrBuckets - 1},
	}
	for _, c := range cases {
		if got := extraBucket(c.v); got != c.want {
			t.Fatalf("extraBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// BenchmarkAttributionRecord measures the steady-state cost of charging one
// multi-plane command: after the first touch of each block the per-block and
// per-lane entries exist, so the hot path is map lookups and accumulation.
func BenchmarkAttributionRecord(b *testing.B) {
	a := NewAttribution()
	const members = 8
	keys := make([]BlockKey, members)
	lats := make([]float64, members)
	for i := range keys {
		keys[i] = BlockKey{Chip: i % 4, Plane: i / 4, Block: 17}
		lats[i] = 700 + float64(i)*13
	}
	a.Record('p', false, true, keys, lats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Record('p', i%3 == 0, i%2 == 0, keys, lats)
	}
}
