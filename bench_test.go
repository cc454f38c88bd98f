// Benchmarks: one per paper table and figure, each regenerating its
// experiment on the reduced quick configuration so `go test -bench=.`
// exercises every reproduction path, plus ablation benches for the model
// design choices called out in DESIGN.md. Run the full-scale numbers with
// `go run ./cmd/sbsim -all` (see EXPERIMENTS.md).
package superfast_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"superfast/internal/chamber"
	"superfast/internal/core"
	"superfast/internal/experiments"
	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/prng"
	"superfast/internal/profile"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
	"superfast/internal/stats"
	"superfast/internal/telemetry"
	"superfast/internal/volume"
	"superfast/internal/workload"
)

// benchConfig is the shared reduced configuration. Parallel experiments
// split measurement and simulation across workers on jitter-offset testbeds,
// producing byte-identical tables to a serial run (see
// TestSimThroughputParallelIdentical), so the benchmarks measure the
// parallel wall-clock without changing any result.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.BlocksPerLane = 48
	cfg.Parallel = 8
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}

func BenchmarkFig5Characterize(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig6Random(b *testing.B)           { runExperiment(b, "fig6") }
func BenchmarkTable1Directions(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkTable2Window(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkTable5Schemes(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkFig12Improvement(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13Distribution(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkFig14PerSB(b *testing.B)           { runExperiment(b, "fig14") }
func BenchmarkFig15PECycles(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkOverheadCompute(b *testing.B)      { runExperiment(b, "overhead-compute") }
func BenchmarkOverheadSpace(b *testing.B)        { runExperiment(b, "overhead-space") }
func BenchmarkFTLHostWrites(b *testing.B)        { runExperiment(b, "ftl-host") }
func BenchmarkReadHints(b *testing.B)            { runExperiment(b, "read-hints") }
func BenchmarkSimThroughput(b *testing.B)        { runExperiment(b, "sim-throughput") }
func BenchmarkRetention(b *testing.B)            { runExperiment(b, "retention") }
func BenchmarkRAIDOverhead(b *testing.B)         { runExperiment(b, "raid-overhead") }
func BenchmarkNCQ(b *testing.B)                  { runExperiment(b, "ncq") }
func BenchmarkGCPolicy(b *testing.B)             { runExperiment(b, "gc-policy") }
func BenchmarkTemperature(b *testing.B)          { runExperiment(b, "temperature") }
func BenchmarkLoadSweep(b *testing.B)            { runExperiment(b, "load-sweep") }
func BenchmarkDFTL(b *testing.B)                 { runExperiment(b, "dftl") }
func BenchmarkAblationQuantization(b *testing.B) { runExperiment(b, "ablation-quant") }
func BenchmarkAblationErsCorrelation(b *testing.B) {
	runExperiment(b, "ablation-erscorr")
}
func BenchmarkAblationRemeasure(b *testing.B) { runExperiment(b, "ablation-remeasure") }
func BenchmarkAblationWindow(b *testing.B)    { runExperiment(b, "ablation-window") }
func BenchmarkAblationGlobal(b *testing.B)    { runExperiment(b, "ablation-global") }

// BenchmarkQSTRMedAssembleOnly isolates the scheme's per-superblock cost:
// the reference selection, 12 similarity checks, and free-list updates.
func BenchmarkQSTRMedAssembleOnly(b *testing.B) {
	g := flash.TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	tb := chamber.New(arr)
	type seedData struct {
		addr  flash.BlockAddr
		sum   float64
		eigen profile.Eigen
	}
	var seeds []seedData
	for lane := 0; lane < g.Lanes(); lane++ {
		chip, plane := g.LaneChipPlane(lane)
		for blk := 0; blk < g.BlocksPerPlane; blk++ {
			prof := tb.FastProfile(lane, blk, 0)
			seeds = append(seeds, seedData{
				addr:  flash.BlockAddr{Chip: chip, Plane: plane, Block: blk},
				sum:   prof.PgmSum,
				eigen: profile.EigenFromProfile(prof),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scheme, err := core.NewScheme(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, sd := range seeds {
			scheme.Seed(sd.addr, sd.sum, sd.eigen)
			if err := scheme.AddFree(sd.addr); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for scheme.FreeCount() > 0 {
			if _, err := scheme.Assemble(core.Fast); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConcurrentDevice replays a stamped read burst through the
// thread-safe multi-queue front end at several queue depths (plus the
// serialized Device as the depth-0 baseline) and reports the simulated read
// throughput of each — the load-sweep view of the concurrency model.
func BenchmarkConcurrentDevice(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 8
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	const burst = 64

	b.Run("serialized", func(b *testing.B) {
		var span float64
		for i := 0; i < b.N; i++ {
			dev, err := ssd.New(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := dev.FillSequential(nil); err != nil {
				b.Fatal(err)
			}
			base := dev.Now() + 1000
			var finish float64
			for lpn := int64(0); lpn < burst; lpn++ {
				c, err := dev.Submit(ssd.Request{Kind: ssd.OpRead, LPN: lpn, Arrival: base})
				if err != nil {
					b.Fatal(err)
				}
				if c.Finish > finish {
					finish = c.Finish
				}
			}
			span = finish - base
		}
		b.ReportMetric(float64(burst)/span*1e6, "simreads/s")
	})
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var span float64
			for i := 0; i < b.N; i++ {
				dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.FillSequential(nil); err != nil {
					b.Fatal(err)
				}
				base := dev.Now() + 1000
				reqs := make([]ssd.Request, burst)
				for j := range reqs {
					reqs[j] = ssd.Request{Kind: ssd.OpRead, LPN: int64(j), Arrival: base}
				}
				comps, err := workload.RunConcurrent(dev, reqs, depth)
				if err != nil {
					b.Fatal(err)
				}
				var finish float64
				for _, c := range comps {
					if c.Finish > finish {
						finish = c.Finish
					}
				}
				span = finish - base
				dev.Close()
			}
			b.ReportMetric(float64(burst)/span*1e6, "simreads/s")
		})
	}
}

// loopbackServer serves a small filled concurrent device over TCP loopback,
// torn down at cleanup, and returns its address and the device capacity.
func loopbackServer(tb testing.TB) (string, int64) {
	tb.Helper()
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(dev.Close)
	if err := dev.FillSequential(nil); err != nil {
		tb.Fatal(err)
	}
	srv := server.New(dev, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String(), dev.FTL().Capacity()
}

// loopbackClient dials a fresh loopbackServer; both ends are torn down at
// cleanup. It returns the device capacity alongside the client.
func loopbackClient(tb testing.TB) (*client.Client, int64) {
	tb.Helper()
	addr, capacity := loopbackServer(tb)
	return dialLoopback(tb, addr), capacity
}

// loopbackProxy serves a 4-backend, 2-replica volume of loopbackServers
// through a proxy and dials it; everything is torn down at cleanup. The first
// pages logical pages hold 4 KiB of data, so reads of them carry a payload.
func loopbackProxy(tb testing.TB, pages int64) (*client.Client, *volume.Volume) {
	tb.Helper()
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i], _ = loopbackServer(tb)
	}
	v, err := volume.Dial(addrs, volume.Config{Stripe: 8, Replicas: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(v.Close)
	p := volume.NewProxy(v, volume.ProxyConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go p.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Shutdown(ctx)
	})
	cl := dialLoopback(tb, ln.Addr().String())
	for lpn := int64(0); lpn < pages; lpn++ {
		if _, err := cl.Write(lpn, make([]byte, 4<<10), ftl.HintNone); err != nil {
			tb.Fatal(err)
		}
	}
	return cl, v
}

func dialLoopback(tb testing.TB, addr string) *client.Client {
	tb.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// BenchmarkServerLoopback drives the TCP block service end to end: a
// pipelining client against a loopback ftl server over the concurrent device,
// closed-loop at several queue depths. The per-op cost includes framing, the
// socket round trip, admission, and the device itself — the wire-protocol
// overhead on top of BenchmarkConcurrentDevice's direct submission path.
// A few reads run before the timer starts, so even the single iteration
// `make bench` records reports the steady-state allocs/op (not the
// connection's buffers), which is what `make bench-compare` gates on.
func BenchmarkServerLoopback(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			cl, capacity := loopbackClient(b)
			for i := 0; i < 64; i++ {
				if _, err := cl.Read(int64(i) % capacity); err != nil {
					b.Fatal(err)
				}
			}
			// calls is a ring: slot i%depth holds the call issued depth ops ago.
			calls := make([]*client.Call, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N+depth; i++ {
				slot := i % depth
				if calls[slot] != nil {
					if _, err := calls[slot].Wait(); err != nil {
						b.Fatal(err)
					}
					calls[slot] = nil
				}
				if i >= b.N {
					continue
				}
				call, err := cl.Start(server.Frame{Op: server.OpRead, LPN: int64(i) % capacity})
				if err != nil {
					b.Fatal(err)
				}
				calls[slot] = call
			}
		})
	}
}

// BenchmarkProxyLoopback is the rung above BenchmarkServerLoopback: the same
// pipelining client, but against the volume proxy over four loopback backends
// with two replicas — vol-mixed-4x2 of the repository benchmark in miniature.
// One iteration is a closed-loop burst of 2048 ops at depth 32, alternating
// reads of written 4 KiB pages (one leg) and 4 KiB writes (two legs), after a
// burst that warms the connections and the proxy's page buffers; so B/op and
// allocs/op are those of 2048 steady-state ops, proxy, backends and client
// together, which is what `make bench-compare` gates on.
func BenchmarkProxyLoopback(b *testing.B) {
	const (
		ops   = 2048
		depth = 32
		pages = 512
	)
	cl, _ := loopbackProxy(b, pages)
	page := make([]byte, 4<<10)
	calls := make([]*client.Call, depth)
	burst := func() {
		for i := 0; i < ops+depth; i++ {
			slot := i % depth
			if calls[slot] != nil {
				if r, err := calls[slot].Wait(); err != nil || r.Status != server.StatusOK {
					b.Fatal(err, r.Status)
				}
				calls[slot] = nil
			}
			if i >= ops {
				continue
			}
			f := server.Frame{Op: server.OpRead, LPN: int64(i) % pages}
			if i%2 == 1 {
				f = server.Frame{Op: server.OpWrite, LPN: int64(i) * 2654435761 % pages, Payload: page}
			}
			call, err := cl.Start(f)
			if err != nil {
				b.Fatal(err)
			}
			calls[slot] = call
		}
	}
	burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkVolumeLoopback shows the volume layer's scaling story: the same
// open-loop write burst against 1, 2 and 4 paced loopback backends, striped
// by internal/volume. Pacing makes every backend hold its admission slot for
// the simulated latency of each write (scaled to wall time), so a single
// backend is throughput-bound the way a real device is — and striping the
// space N ways divides the per-backend work, scaling aggregate wops/s
// near-linearly even on one CPU core. The wops/s metric per sub-benchmark is
// the README cluster table; backends4 must be ≥3× backends1.
func BenchmarkVolumeLoopback(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	scfg := server.Config{MaxInFlight: 16, Pace: 0.05}
	const (
		ops   = 2048
		depth = 64
	)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends%d", n), func(b *testing.B) {
			addrs := make([]string, n)
			for i := range addrs {
				dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(dev.Close)
				srv := server.New(dev, scfg)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go srv.Serve(ln)
				b.Cleanup(func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					srv.Shutdown(ctx)
				})
				addrs[i] = ln.Addr().String()
			}
			v, err := volume.Dial(addrs, volume.Config{Stripe: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { v.Close() })
			span := v.Space()
			payload := []byte("vol-bench-write")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pending := make([]*volume.Call, 0, depth)
				for j := 0; j < ops; j++ {
					if len(pending) == depth {
						if _, err := pending[0].Wait(); err != nil {
							b.Fatal(err)
						}
						pending = pending[1:]
					}
					call, err := v.StartWrite(int64(j)%span, payload, ftl.HintNone, 0, 0, volume.TraceRef{})
					if err != nil {
						b.Fatal(err)
					}
					pending = append(pending, call)
				}
				for _, call := range pending {
					if _, err := call.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "wops/s")
		})
	}
}

// BenchmarkFTLChurn measures steady-state FTL write throughput under GC.
func BenchmarkFTLChurn(b *testing.B) {
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
		b.Fatal(err)
	}
	// One payload for the whole churn (the serial Device copies at submit
	// entry). Fill with real payloads and overwrite twice ahead of the
	// timer: payload buffers circulate writes→flash→erase→pool, so the fill
	// seeds the circulation and the warmup passes let it ratchet up to
	// self-sufficiency. The measured loop is the recycled steady state,
	// which TestFTLChurnAllocFree pins at zero allocations per write.
	payload := []byte("bench")
	if err := dev.FillSequential(func(int64) []byte { return payload }); err != nil {
		b.Fatal(err)
	}
	capacity := dev.FTL().Capacity()
	churn := func(i int) {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: payload,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*int(capacity); i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
}

// BenchmarkGCTailLatency replays the same stamped open-loop overwrite burst
// against a blocking-GC device and a preemptive one (8 pages/step) and
// reports the simulated write-latency tail next to the write amplification.
// The ROADMAP win condition reads directly off the metrics: preemptive mode
// shows a large p999_us reduction at equal waf, because the same collections
// run in the inter-arrival windows instead of inside unlucky host writes.
func BenchmarkGCTailLatency(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 48
	g.Layers = 24
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25

	mk := func(b *testing.B, step int) *ssd.Device {
		c := cfg
		c.FTL.GCStepPages = step
		dev, err := ssd.New(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), c)
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.FillSequential(nil); err != nil {
			b.Fatal(err)
		}
		return dev
	}

	// Calibrate the arrival cadence once on a closed-loop blocking run, then
	// stamp the same uniform overwrite trace for both modes: 3.5× the mean
	// inter-completion gap leaves idle windows without idling the device.
	cal := mk(b, 0)
	capacity := cal.FTL().Capacity()
	ops := 3 * int(capacity)
	lpns := make([]int64, ops)
	src := prng.New(1, 0x6cb)
	for i := range lpns {
		lpns[i] = int64(src.Intn(int(capacity)))
	}
	calStart := cal.Now()
	for _, lpn := range lpns {
		if _, err := cal.Submit(ssd.Request{Kind: ssd.OpWrite, LPN: lpn, Data: []byte("w")}); err != nil {
			b.Fatal(err)
		}
	}
	gap := 3.5 * (cal.Now() - calStart) / float64(ops)

	for _, mode := range []struct {
		name string
		step int
	}{{"blocking", 0}, {"preemptive", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			var sum stats.Summary
			var waf float64
			for i := 0; i < b.N; i++ {
				dev := mk(b, mode.step)
				base := dev.Now() + gap
				lats := make([]float64, 0, ops)
				for j, lpn := range lpns {
					c, err := dev.Submit(ssd.Request{
						Kind: ssd.OpWrite, LPN: lpn, Data: []byte("w"),
						Arrival: base + float64(j)*gap,
					})
					if err != nil {
						b.Fatal(err)
					}
					lats = append(lats, c.Latency)
				}
				sum = stats.Summarize(lats)
				waf = dev.FTL().Stats().WAF()
			}
			b.ReportMetric(sum.P99, "p99_us")
			b.ReportMetric(sum.P999, "p999_us")
			b.ReportMetric(waf, "waf")
		})
	}
}

// BenchmarkTelemetryOverhead compares the device hot path with telemetry
// detached (the nil-sink fast path: one branch per hook site) against a run
// with a tracer and metrics registry attached. The "disabled" flavor is the
// default-configuration cost every simulation pays; it must stay within
// noise of the pre-telemetry front end.
func BenchmarkTelemetryOverhead(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	mk := func(b *testing.B) *ssd.ConcurrentDevice {
		dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.FillSequential(nil); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(dev.Close)
		return dev
	}
	capacity := int64(0)
	read := func(b *testing.B, dev *ssd.ConcurrentDevice, i int) {
		if _, err := dev.Submit(ssd.Request{Kind: ssd.OpRead, LPN: int64(i) % capacity}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, dev, i)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		dev.SetTracer(telemetry.NewTrace())
		dev.SetMetrics(telemetry.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, dev, i)
		}
	})
	// The write flavors exercise the sinks the read path never reaches:
	// multi-plane flushes feed the attribution table and the recorder samples
	// on every submission. writes-disabled is the same workload through the
	// nil-sink branches.
	write := func(b *testing.B, dev *ssd.ConcurrentDevice, i int) {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: []byte{byte(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("writes-disabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(b, dev, i)
		}
	})
	b.Run("writes-full", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		dev.SetTracer(telemetry.NewTrace())
		dev.SetMetrics(telemetry.New())
		dev.SetAttribution(telemetry.NewAttribution())
		rec, err := telemetry.NewRecorder(1000, 4096, ssd.RecorderColumns(g.Chips))
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.AttachRecorder(rec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(b, dev, i)
		}
	})
}
