package volume

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/prng"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
)

// testBackend is one in-process block service on a loopback listener.
type testBackend struct {
	srv  *server.Server
	addr string
	stop func()
}

// startBackend spins one block service over a small test device.
func startBackend(t testing.TB, cfg server.Config) *testBackend {
	t.Helper()
	return startBackendPages(t, cfg, flash.TestGeometry().PageSize)
}

// startBackendPages is startBackend with pages of another size.
func startBackendPages(t testing.TB, cfg server.Config, pageSize int) *testBackend {
	t.Helper()
	g := flash.TestGeometry()
	g.PageSize = pageSize
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	dcfg := ssd.DefaultConfig()
	dcfg.FTL.Overprovision = 0.25
	dev, err := ssd.NewConcurrent(arr, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ledger != nil {
		// Trace tests wire one ledger through serving layer and device both,
		// like cmd/ftlserve does.
		dev.SetLedger(cfg.Ledger)
	}
	srv := server.New(dev, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			if err := <-done; err != nil {
				t.Errorf("backend serve: %v", err)
			}
			dev.Close()
		})
	}
	t.Cleanup(stop)
	return &testBackend{srv: srv, addr: ln.Addr().String(), stop: stop}
}

// startCluster spins n backends and a volume over them.
func startCluster(t testing.TB, n int, scfg server.Config, vcfg Config) (*Volume, []*testBackend) {
	t.Helper()
	bks := make([]*testBackend, n)
	addrs := make([]string, n)
	for i := range bks {
		bks[i] = startBackend(t, scfg)
		addrs[i] = bks[i].addr
	}
	v, err := Dial(addrs, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	return v, bks
}

func pageData(lpn int64, gen int) []byte {
	return []byte(fmt.Sprintf("vol-page-%d-gen-%d", lpn, gen))
}

func TestVolumeStripingScatterGather(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{}, Config{Stripe: 4})
	if v.Space() < 24 {
		t.Fatalf("space %d too small for the test", v.Space())
	}
	// Write a run crossing several stripe boundaries, then gather it back.
	span := int64(24)
	for lpn := int64(0); lpn < span; lpn++ {
		r, err := v.Write(lpn, pageData(lpn, 0), ftl.HintNone)
		if err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("write %d: %v", lpn, r.Status)
		}
	}
	for lpn := int64(0); lpn < span; lpn++ {
		r, err := v.Read(lpn)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("read %d: %v", lpn, r.Status)
		}
		if !strings.HasPrefix(string(r.Payload), string(pageData(lpn, 0))) {
			t.Fatalf("read %d: got %q", lpn, r.Payload[:24])
		}
	}
	// Each backend must have taken a share: 24 pages over 3 backends at
	// stripe 4 is exactly 2 units each.
	snap := v.ClusterStat()
	for _, b := range snap.Backends {
		if b.Snap.Device.Writes != 8 {
			t.Fatalf("backend %d saw %d writes, want 8", b.Backend, b.Snap.Device.Writes)
		}
	}
	if snap.Device.Writes != 24 || snap.Device.Reads != 24 {
		t.Fatalf("cluster device counters %+v", snap.Device)
	}
	if snap.Volume.Writes != 24 || snap.Volume.Reads != 24 {
		t.Fatalf("volume counters %+v", snap.Volume)
	}
	if snap.ReadLat.N != 24 || snap.WriteLat.N != 24 {
		t.Fatalf("latency digests N=%d/%d, want 24/24", snap.ReadLat.N, snap.WriteLat.N)
	}
	if snap.ReadLat.P50 <= 0 || snap.WriteLat.P50 <= 0 {
		t.Fatalf("latency quantiles %+v / %+v", snap.ReadLat, snap.WriteLat)
	}

	// Trim one page; it must vanish on the shard too.
	if r, err := v.Trim(5); err != nil || r.Status != server.StatusOK {
		t.Fatalf("trim: %v %v", err, r.Status)
	}
	if r, err := v.Read(5); err != nil || r.Status != server.StatusBadRequest {
		t.Fatalf("read after trim: %v %v", err, r.Status)
	}
	if err := v.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestVolumePipelinedStarts(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{}, Config{Stripe: 2})
	const n = 96
	calls := make([]*Call, 0, n)
	for i := 0; i < n; i++ {
		lpn := int64(i) % v.Space()
		ca, err := v.StartWrite(lpn, pageData(lpn, 1), ftl.HintNone, 0, 0, TraceRef{})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		calls = append(calls, ca)
	}
	for i, ca := range calls {
		r, err := ca.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("call %d: %v", i, r.Status)
		}
	}
}

func TestVolumeReplicationAndReadRepair(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{}, Config{Stripe: 2, Replicas: 2, VerifyReads: true})
	const lpn = int64(3)
	if r, err := v.Write(lpn, pageData(lpn, 0), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write: %v %v", err, r.Status)
	}

	// Every replica holds the page: check via direct backend connections.
	v.mu.Lock()
	locs, err := v.place.Locate(lpn, nil)
	addrs := make([]string, len(locs))
	for i, l := range locs {
		addrs[i] = v.bks[l.Backend].addr
	}
	v.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("%d replicas placed, want 2", len(locs))
	}
	for i, l := range locs {
		c, err := client.Dial(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Read(l.SLPN)
		if err != nil {
			t.Fatalf("replica %d read: %v", i, err)
		}
		if !strings.HasPrefix(string(r.Payload), string(pageData(lpn, 0))) {
			t.Fatalf("replica %d holds %q", i, r.Payload[:16])
		}
		c.Close()
	}

	// Corrupt the secondary copy behind the volume's back.
	cor, err := client.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cor.Write(locs[1].SLPN, []byte("corrupted-replica"), ftl.HintNone); err != nil {
		t.Fatal(err)
	}

	// A verified read serves the primary and repairs the divergence.
	r, err := v.Read(lpn)
	if err != nil {
		t.Fatalf("verified read: %v", err)
	}
	if !strings.HasPrefix(string(r.Payload), string(pageData(lpn, 0))) {
		t.Fatalf("verified read served %q", r.Payload[:16])
	}
	v.cmu.Lock()
	repairs := v.counters.Repairs
	v.cmu.Unlock()
	if repairs == 0 {
		t.Fatal("divergent replica did not count a repair")
	}
	rr, err := cor.Read(locs[1].SLPN)
	if err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
	if !strings.HasPrefix(string(rr.Payload), string(pageData(lpn, 0))) {
		t.Fatalf("replica not repaired: %q", rr.Payload[:16])
	}
	cor.Close()

	// A clean verified read repairs nothing further.
	if _, err := v.Read(lpn); err != nil {
		t.Fatal(err)
	}
	v.cmu.Lock()
	again := v.counters.Repairs
	v.cmu.Unlock()
	if again != repairs {
		t.Fatalf("clean read repaired: %d → %d", repairs, again)
	}
}

func TestVolumeReadRetryOnDeadReplica(t *testing.T) {
	v, bks := startCluster(t, 3, server.Config{}, Config{Stripe: 2, Replicas: 2})
	const lpn = int64(0)
	if r, err := v.Write(lpn, pageData(lpn, 0), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write: %v %v", err, r.Status)
	}
	v.mu.Lock()
	locs, _ := v.place.Locate(lpn, nil)
	v.mu.Unlock()

	// Kill the primary's backend; the read must fail over to the replica.
	bks[locs[0].Backend].stop()
	r, err := v.Read(lpn)
	if err != nil {
		t.Fatalf("read after primary death: %v", err)
	}
	if r.Status != server.StatusOK || !strings.HasPrefix(string(r.Payload), string(pageData(lpn, 0))) {
		t.Fatalf("failover read: %v %q", r.Status, r.Payload[:12])
	}
	v.cmu.Lock()
	retries := v.counters.Retries
	v.cmu.Unlock()
	if retries == 0 {
		t.Fatal("failover did not count a retry")
	}

	// A second read hits the dead connection at Start time and must still
	// fail over.
	if r, err := v.Read(lpn); err != nil || r.Status != server.StatusOK {
		t.Fatalf("second failover read: %v %v", err, r.Status)
	}

	// Writes are not retried: the dead replica fails the op.
	if _, err := v.Write(lpn, pageData(lpn, 1), ftl.HintNone); err == nil {
		t.Fatal("write with a dead replica should fail")
	}
}

func TestVolumeRebalanceUnderTraffic(t *testing.T) {
	v, bks := startCluster(t, 3, server.Config{}, Config{Stripe: 2})
	span := v.Space()
	if span > 96 {
		span = 96
	}
	for lpn := int64(0); lpn < span; lpn++ {
		if r, err := v.Write(lpn, pageData(lpn, 0), ftl.HintNone); err != nil || r.Status != server.StatusOK {
			t.Fatalf("seed write %d: %v %v", lpn, err, r.Status)
		}
	}
	// Leave one page unmapped so migration exercises the trim path, and over
	// a freed slot later.
	if _, err := v.Trim(span - 1); err != nil {
		t.Fatal(err)
	}

	// Background traffic: continuous reads plus generation-bumping writes on
	// a fixed region, while rebalances run.
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		genMu   sync.Mutex
		lastGen = map[int64]int{}
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		src := prng.New(7, 0x70a)
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			lpn := int64(src.Intn(int(span - 1)))
			if r, err := v.Write(lpn, pageData(lpn, gen), ftl.HintNone); err != nil || r.Status != server.StatusOK {
				t.Errorf("traffic write %d: %v %v", lpn, err, r.Status)
				return
			}
			genMu.Lock()
			lastGen[lpn] = gen
			genMu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		src := prng.New(11, 0x70b)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lpn := int64(src.Intn(int(span - 1)))
			r, err := v.Read(lpn)
			if err != nil || r.Status != server.StatusOK {
				t.Errorf("traffic read %d: %v %v", lpn, err, r.Status)
				return
			}
		}
	}()

	// Grow to 4 backends, then drain backend 0 — both while traffic flows.
	nb4 := startBackend(t, server.Config{})
	nb, err := v.AddBackend(nb4.addr)
	if err != nil {
		t.Fatalf("add backend: %v", err)
	}
	if err := v.RemoveBackend(0); err != nil {
		t.Fatalf("remove backend: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The new backend carries load; the removed one carries none.
	snap := v.ClusterStat()
	var nbStat, oldStat *BackendStat
	for i := range snap.Backends {
		switch snap.Backends[i].Backend {
		case nb:
			nbStat = &snap.Backends[i]
		case 0:
			oldStat = &snap.Backends[i]
		}
	}
	if nbStat == nil || !nbStat.Active || nbStat.Slots == 0 {
		t.Fatalf("new backend stat %+v", nbStat)
	}
	if oldStat == nil || oldStat.Active || oldStat.Slots != 0 {
		t.Fatalf("removed backend stat %+v", oldStat)
	}
	if snap.Volume.UnitMoves == 0 {
		t.Fatal("no unit moves recorded")
	}

	// Every page reads back at its last completed generation.
	genMu.Lock()
	defer genMu.Unlock()
	for lpn := int64(0); lpn < span-1; lpn++ {
		r, err := v.Read(lpn)
		if err != nil || r.Status != server.StatusOK {
			t.Fatalf("verify read %d: %v %v", lpn, err, r.Status)
		}
		want := pageData(lpn, lastGen[lpn])
		if !strings.HasPrefix(string(r.Payload), string(want)) {
			t.Fatalf("lpn %d: got %q, want prefix %q", lpn, r.Payload[:24], want)
		}
	}
	// The trimmed page stayed unmapped through two migrations.
	if r, err := v.Read(span - 1); err != nil || r.Status != server.StatusBadRequest {
		t.Fatalf("trimmed page after rebalance: %v %v", err, r.Status)
	}
	_ = bks
}

func TestVolumeConfigErrors(t *testing.T) {
	if _, err := Dial(nil, Config{}); err == nil {
		t.Fatal("no backends must fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, Config{}); err == nil {
		t.Fatal("dead backend must fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, Config{VerifyReads: true}); err == nil {
		t.Fatal("VerifyReads with 1 replica must fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, Config{Replicas: 2, Sequenced: true, VerifyReads: true}); err == nil {
		t.Fatal("VerifyReads with Sequenced must fail")
	}

	v, _ := startCluster(t, 2, server.Config{Sequenced: true}, Config{Stripe: 2, Sequenced: true})
	if _, err := v.AddBackend("127.0.0.1:1"); err == nil {
		t.Fatal("rebalance in sequenced mode must fail")
	}
	if err := v.RemoveBackend(0); err == nil {
		t.Fatal("remove in sequenced mode must fail")
	}
}

func TestVolumeOutOfRange(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2})
	if _, err := v.Read(v.Space()); err == nil {
		t.Fatal("read past the space must fail")
	}
	if _, err := v.Write(-1, []byte("x"), ftl.HintNone); err == nil {
		t.Fatal("negative lpn must fail")
	}
}

func TestVolumeClosed(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{}, Config{Stripe: 2})
	v.Close()
	if _, err := v.Read(0); err == nil {
		t.Fatal("read on a closed volume must fail")
	}
}

// TestVolumeSequencedTicketFlow: sequenced ops out of global order are
// reordered by the cursor; skipped tickets advance it.
func TestVolumeSequencedTicketFlow(t *testing.T) {
	v, _ := startCluster(t, 2, server.Config{Sequenced: true}, Config{Stripe: 2, Sequenced: true})

	// Submit tickets 1 and 2 from goroutines first; they must block until
	// ticket 0 lands.
	type res struct {
		r   server.Response
		err error
	}
	results := make([]chan res, 3)
	for i := range results {
		results[i] = make(chan res, 1)
	}
	var started sync.WaitGroup
	for _, seq := range []uint64{1, 2} {
		started.Add(1)
		go func(seq uint64) {
			started.Done()
			ca, err := v.StartWrite(int64(seq), pageData(int64(seq), 0), ftl.HintNone, seq, 0, TraceRef{})
			if err != nil {
				results[seq] <- res{err: err}
				return
			}
			r, err := ca.Wait()
			results[seq] <- res{r: r, err: err}
		}(seq)
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-results[1]:
		t.Fatal("ticket 1 resolved before ticket 0 was submitted")
	case <-results[2]:
		t.Fatal("ticket 2 resolved before ticket 0 was submitted")
	default:
	}
	ca, err := v.StartWrite(0, pageData(0, 0), ftl.HintNone, 0, 0, TraceRef{})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ca.Wait(); err != nil || r.Status != server.StatusOK {
		t.Fatalf("ticket 0: %v %v", err, r.Status)
	}
	for seq := 1; seq <= 2; seq++ {
		select {
		case got := <-results[seq]:
			if got.err != nil || got.r.Status != server.StatusOK {
				t.Fatalf("ticket %d: %v %v", seq, got.err, got.r.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ticket %d hung", seq)
		}
	}

	// A skipped ticket unblocks the one behind it.
	done := make(chan res, 1)
	go func() {
		ca, err := v.StartRead(0, 4, 0, TraceRef{})
		if err != nil {
			done <- res{err: err}
			return
		}
		r, err := ca.Wait()
		done <- res{r: r, err: err}
	}()
	v.SkipSeq(3)
	select {
	case got := <-done:
		if got.err != nil || got.r.Status != server.StatusOK {
			t.Fatalf("post-skip read: %v %v", got.err, got.r.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ticket behind a skipped one hung")
	}
}
