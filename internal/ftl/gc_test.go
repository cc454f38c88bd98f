package ftl

import (
	"errors"
	"math"
	"testing"

	"superfast/internal/flash"
	"superfast/internal/prng"
	"superfast/internal/telemetry"
)

func TestGCStepConfigValidation(t *testing.T) {
	arr := testArray(t)
	bad := testConfig()
	bad.GCStepPages = -1
	if _, err := New(arr, bad); err == nil {
		t.Fatal("negative GCStepPages accepted")
	}
	bad = testConfig()
	bad.GCSoftThreshold = bad.GCThreshold - 1
	if _, err := New(arr, bad); err == nil {
		t.Fatal("soft threshold below hard threshold accepted")
	}
	cfg := testConfig()
	f, err := New(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.softGC != cfg.GCThreshold {
		t.Fatalf("soft watermark defaulted to %d, want %d", f.softGC, cfg.GCThreshold)
	}
}

// stepChurn drives the preemptive-GC FTL the way a device front end does:
// one bounded GC step after every host write.
func stepChurn(t *testing.T, f *FTL, churn float64, seed uint64) map[int64]int {
	t.Helper()
	budget := f.cfg.GCStepPages
	gen := make(map[int64]int)
	write := func(lpn int64) {
		if _, err := f.Write(lpn, payload(lpn, gen[lpn])); err != nil {
			t.Fatalf("write lpn %d: %v", lpn, err)
		}
		// An idle-rich host: step until GC has caught up with the watermark.
		for f.GCNeeded() {
			res, err := f.GCStep(budget)
			if err != nil {
				t.Fatalf("gc step: %v", err)
			}
			if res.Moves > budget {
				t.Fatalf("step relocated %d pages, budget %d", res.Moves, budget)
			}
			if res.Erased && res.Moves != 0 {
				t.Fatalf("erase step also relocated %d pages; the erase must be its own step", res.Moves)
			}
			if res.Idle {
				break
			}
		}
	}
	for lpn := int64(0); lpn < f.Capacity(); lpn++ {
		write(lpn)
		gen[lpn] = 0
	}
	src := prng.New(seed, 0xc4)
	n := int(float64(f.Capacity()) * churn)
	for i := 0; i < n; i++ {
		lpn := int64(src.Intn(int(f.Capacity())))
		gen[lpn]++
		write(lpn)
	}
	return gen
}

func TestPreemptiveGCStepsPreserveData(t *testing.T) {
	cfg := testConfig()
	cfg.GCStepPages = 4
	f := newFTL(t, cfg)
	gen := stepChurn(t, f, 1.5, 42)
	st := f.Stats()
	if st.GCSteps == 0 {
		t.Fatal("workload should have taken preemptive GC steps")
	}
	if st.GCStalls != 0 {
		t.Fatalf("stepping kept pace yet %d blocking stalls were forced", st.GCStalls)
	}
	if _, err := f.DrainGC(); err != nil {
		t.Fatal(err)
	}
	if d := f.GCDebt(); d != 0 {
		t.Fatalf("GC debt %d after drain, want 0", d)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	src := prng.New(99)
	for i := 0; i < 200; i++ {
		lpn := int64(src.Intn(int(f.Capacity())))
		r, err := f.Read(lpn)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		if string(r.Data) != string(payload(lpn, gen[lpn])) {
			t.Fatalf("lpn %d: got %q, want gen %d", lpn, r.Data, gen[lpn])
		}
	}
}

func TestPreemptiveGCMatchesBlockingWAF(t *testing.T) {
	blocking := newFTL(t, testConfig())
	fillAndChurn(t, blocking, 1.5, 42)

	cfg := testConfig()
	cfg.GCStepPages = 4
	stepped := newFTL(t, cfg)
	stepChurn(t, stepped, 1.5, 42)
	if _, err := stepped.DrainGC(); err != nil {
		t.Fatal(err)
	}

	bw, sw := blocking.Stats().WAF(), stepped.Stats().WAF()
	if math.Abs(bw-sw)/bw > 0.01 {
		t.Fatalf("steady-state WAF drifted: blocking %.4f vs preemptive %.4f", bw, sw)
	}
}

func TestGCStepIdleAboveSoftWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.GCStepPages = 4
	f := newFTL(t, cfg)
	res, err := f.GCStep(cfg.GCStepPages)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Idle || res.Moves != 0 || res.Latency != 0 {
		t.Fatalf("fresh device should be GC-idle, got %+v", res)
	}
	if f.GCNeeded() {
		t.Fatal("fresh device reports GC needed")
	}
}

// TestCollectErrorLeavesResumableState is the regression test for the
// orphaned-victim bug: a read failure mid-collection used to leave the
// victim outside both the superblock table and the free pool, with no way
// to retry. The cursor must keep the victim reachable and resumable.
func TestCollectErrorLeavesResumableState(t *testing.T) {
	f := newFTL(t, testConfig())
	fillAndChurn(t, f, 0.6, 7)
	victim := f.pickVictim()
	if victim == nil {
		t.Fatal("no GC victim after churn")
	}
	// Corrupt the first still-mapped page the collection scan will visit.
	target := int64(-1)
	var page flash.PageAddr
scan:
	for _, m := range victim.members {
		base := f.ppn(m, 0, 0)
		for i := 0; i < f.geo.PagesPerBlock(); i++ {
			if lpn := f.p2l[base+int64(i)]; lpn >= 0 {
				addr, lwl, typ := f.ppnLocate(base + int64(i))
				page = flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: typ}
				target = lpn
				break scan
			}
		}
	}
	if target < 0 {
		t.Fatal("victim has no mapped pages")
	}
	if err := f.arr.InjectCorruption(page); err != nil {
		t.Fatal(err)
	}

	st := f.pushVictim(victim)
	_, _, _, err := f.gcAdvance(st, 0)
	if err == nil {
		t.Fatal("collection over a corrupted page should fail")
	}
	if !errors.Is(err, flash.ErrUncorrectable) {
		t.Fatalf("error should wrap ErrUncorrectable, got %v", err)
	}
	// The victim must be neither orphaned nor inconsistent: still tracked by
	// the cursor, members still in bySB, mapping invariants intact.
	if f.GCDebt() == 0 {
		t.Fatal("failed collection left no resumable GC debt")
	}
	for _, m := range victim.members {
		if f.sbOf(m) != victim {
			t.Fatalf("member %v lost its superblock binding mid-collection", m)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The host overwrites the unreadable page (invalidating it), and the
	// collection resumes from the cursor to completion. The overwrite's own
	// flush may resume it inline — either path must reclaim the victim.
	erasesBefore := f.Stats().Erases
	if _, err := f.Write(target, payload(target, 1000)); err != nil {
		t.Fatalf("overwrite of corrupted lpn: %v", err)
	}
	if _, err := f.DrainGC(); err != nil {
		t.Fatalf("resumed collection: %v", err)
	}
	if f.GCDebt() != 0 {
		t.Fatal("GC debt remains after resumed collection")
	}
	if f.Stats().Erases <= erasesBefore {
		t.Fatal("resumed collection never erased the victim")
	}
	for _, m := range victim.members {
		if f.sbOf(m) == victim {
			t.Fatalf("member %v still bound to the reclaimed victim", m)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r, err := f.Read(target)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if string(r.Data) != string(payload(target, 1000)) {
		t.Fatalf("lpn %d lost its overwrite across the failed collection", target)
	}
}

// TestGCStarvationCounted is the regression test for silent GC starvation:
// a device whose sealed superblocks are all 100% valid has nothing to
// reclaim, and used to degrade without any signal.
func TestGCStarvationCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Overprovision = 0 // every page written once → all superblocks fully valid
	f := newFTL(t, cfg)
	m := telemetry.New()
	f.SetMetrics(m)
	var lastErr error
	for lpn := int64(0); lpn < f.Capacity(); lpn++ {
		if _, err := f.Write(lpn, payload(lpn, 0)); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || !errors.Is(lastErr, ErrDeviceFull) {
		t.Fatalf("zero-overprovision fill should exhaust the device, got %v", lastErr)
	}
	st := f.Stats()
	if st.GCStarved == 0 {
		t.Fatal("GC starvation went uncounted")
	}
	if st.GCRuns != 0 {
		t.Fatalf("no victim existed yet %d GC runs were counted", st.GCRuns)
	}
	found := false
	for _, v := range m.Snapshot() {
		if v.Name == "ftl.gc.starved" {
			found = true
			if uint64(v.Value) != st.GCStarved {
				t.Fatalf("gauge ftl.gc.starved = %v, stats say %d", v.Value, st.GCStarved)
			}
		}
	}
	if !found {
		t.Fatal("ftl.gc.starved gauge not registered")
	}
}

func TestWriteResultSplitsGCLatency(t *testing.T) {
	f := newFTL(t, testConfig())
	sawGC := false
	gen := make(map[int64]int)
	src := prng.New(11, 0x5e)
	for i := 0; i < int(f.Capacity())*5/2; i++ {
		var lpn int64
		if i < int(f.Capacity()) {
			lpn = int64(i)
		} else {
			lpn = int64(src.Intn(int(f.Capacity())))
		}
		gen[lpn]++
		res, err := f.Write(lpn, payload(lpn, gen[lpn]))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Latency-(res.HostLatency+res.GCLatency)) > 1e-9 {
			t.Fatalf("latency split broken: total %v != host %v + gc %v",
				res.Latency, res.HostLatency, res.GCLatency)
		}
		if res.GCLatency > 0 {
			if !res.Flushed {
				t.Fatal("blocking GC latency on a write that did not flush")
			}
			sawGC = true
		}
	}
	if !sawGC {
		t.Fatal("churn never charged GC latency to a write")
	}
	if f.Stats().GCLatency <= 0 {
		t.Fatal("Stats.GCLatency not accumulated")
	}
}

func TestCheckpointDrainsPendingGC(t *testing.T) {
	arr := testArray(t)
	cfg := testConfig()
	cfg.GCStepPages = 2
	f, err := New(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := stepChurn(t, f, 1.0, 13)
	// Leave a collection half-done, then checkpoint mid-flight.
	for f.GCDebt() == 0 {
		res, err := f.GCStep(1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Idle {
			gen[0]++
			if _, err := f.Write(0, payload(0, gen[0])); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if f.GCDebt() != 0 {
		t.Fatal("checkpoint left GC debt behind")
	}
	g, err := Restore(arr, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	src := prng.New(5)
	for i := 0; i < 100; i++ {
		lpn := int64(src.Intn(int(g.Capacity())))
		r, err := g.Read(lpn)
		if err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if string(r.Data) != string(payload(lpn, gen[lpn])) {
			t.Fatalf("lpn %d corrupted across mid-GC power cycle", lpn)
		}
	}
}
