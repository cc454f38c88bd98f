package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"superfast/internal/core"
	"superfast/internal/flash"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/volume"
)

// perLayerMetrics are the -trace 1 metrics, layer by layer (the layers are
// the repository's packages). They carry no bound. Three sources, all from
// outside the program: (c) public counters read around a timed phase, (u)
// unit costs of public functions timed in a loop, (l) the ladder — the
// same op stream replayed at every rung, a layer's self time being its
// rung minus the rung below. README.md maps each to the end-to-end metric
// it should move.
var perLayerMetrics = []metricDef{
	{name: "pv.program_latency_ns", unit: "ns", better: "lower"},            // u
	{name: "flash.program_mp_us", unit: "us", better: "lower"},              // u
	{name: "flash.read_ns", unit: "ns", better: "lower"},                    // u
	{name: "flash.erase_mp_us", unit: "us", better: "lower"},                // u
	{name: "flash.programs_per_op", unit: "count", better: "lower"},         // c
	{name: "flash.reads_per_op", unit: "count", better: "lower"},            // c
	{name: "flash.erases_per_kop", unit: "count", better: "lower"},          // c
	{name: "flash.read_retries_per_kop", unit: "count", better: "lower"},    // c
	{name: "flash.chip_util", unit: "ratio", better: "lower"},               // c
	{name: "flash.us_per_op", unit: "us", better: "lower"},                  // l
	{name: "core.assemble_us", unit: "us", better: "lower"},                 // u
	{name: "core.pair_checks_per_assembly", unit: "count", better: "lower"}, // c
	{name: "core.assemblies_per_kop", unit: "count", better: "lower"},       // c
	{name: "ftl.us_per_op", unit: "us", better: "lower"},                    // l
	{name: "ftl.write_us", unit: "us", better: "lower"},                     // l
	{name: "ftl.read_us", unit: "us", better: "lower"},                      // l
	{name: "ftl.self_us_per_op", unit: "us", better: "lower"},               // l
	{name: "ftl.allocs_per_op", unit: "count", better: "lower"},             // l
	{name: "ftl.gc_pages_per_host_write", unit: "count", better: "lower"},   // c
	{name: "ftl.gc_runs_per_kop", unit: "count", better: "lower"},           // c
	{name: "ftl.gc_stalls_per_kop", unit: "count", better: "lower"},         // c
	{name: "ftl.gc_steps_per_kop", unit: "count", better: "lower"},          // c
	{name: "ftl.flushes_per_kop", unit: "count", better: "lower"},           // c
	{name: "ssd.us_per_op", unit: "us", better: "lower"},                    // l
	{name: "ssd.self_us_per_op", unit: "us", better: "lower"},               // l
	{name: "ssd.allocs_per_op", unit: "count", better: "lower"},             // l
	{name: "ssd.sim_gc_time_frac", unit: "ratio", better: "lower"},          // c
	{name: "proto.encode_frame_ns", unit: "ns", better: "lower"},            // u
	{name: "proto.decode_frame_ns", unit: "ns", better: "lower"},            // u
	{name: "proto.encode_resp_ns", unit: "ns", better: "lower"},             // u
	{name: "proto.decode_resp_ns", unit: "ns", better: "lower"},             // u
	{name: "proto.allocs_per_roundtrip", unit: "count", better: "lower"},    // u
	{name: "server.us_per_op", unit: "us", better: "lower"},                 // l
	{name: "server.self_us_per_op", unit: "us", better: "lower"},            // l
	{name: "server.allocs_per_op", unit: "count", better: "lower"},          // l
	{name: "server.accepted", unit: "count", better: "higher"},              // c
	{name: "server.responses", unit: "count", better: "higher"},             // c
	{name: "server.rejected", unit: "count", better: "lower"},               // c
	{name: "server.bytes_in_per_op", unit: "B", better: "lower"},            // c
	{name: "server.bytes_out_per_op", unit: "B", better: "lower"},           // c
	{name: "tcp.us_per_op", unit: "us", better: "lower"},                    // l
	{name: "tcp.self_us_per_op", unit: "us", better: "lower"},               // l
	{name: "tcp.allocs_per_op", unit: "count", better: "lower"},             // l
	{name: "tcp.sys_cpu_frac", unit: "ratio", better: "lower"},              // c
	{name: "go.ctx_switches_per_op", unit: "count", better: "lower"},        // c
	{name: "client.start_us", unit: "us", better: "lower"},                  // spans
	{name: "client.wait_us", unit: "us", better: "lower"},                   // spans
	{name: "client.lat_p999_us", unit: "us", better: "lower"},               // c
	{name: "client.lat_max_us", unit: "us", better: "lower"},                // c
	{name: "volume.us_per_op", unit: "us", better: "lower"},                 // l
	{name: "volume.legs_per_op", unit: "count", better: "lower"},            // c
	{name: "volume.self_us_per_op", unit: "us", better: "lower"},            // l
	{name: "volume.allocs_per_op", unit: "count", better: "lower"},          // l
	{name: "volume.locate_ns", unit: "ns", better: "lower"},                 // u
	{name: "volume.retries", unit: "count", better: "lower"},                // c
	{name: "volume.repairs", unit: "count", better: "lower"},                // c
	{name: "volume.backend_imbalance", unit: "ratio", better: "lower"},      // c
	{name: "proxy.us_per_op", unit: "us", better: "lower"},                  // l
	{name: "proxy.self_us_per_op", unit: "us", better: "lower"},             // l
	{name: "proxy.allocs_per_op", unit: "count", better: "lower"},           // l
	{name: "proxy.accepted", unit: "count", better: "higher"},               // c
	{name: "proxy.responses", unit: "count", better: "higher"},              // c
	{name: "go.gc_cycles", unit: "count", better: "lower"},                  // c
	{name: "go.gc_pause_total_ms", unit: "ms", better: "lower"},             // c
	{name: "go.heap_inuse_mb", unit: "MiB", better: "lower"},                // c
	{name: "go.goroutines_peak", unit: "count", better: "lower"},            // c
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},           // l
	{name: "trace.spans", unit: "count", better: "higher"},                  // spans
}

// ladder is the outcome of one workload's traced run.
type ladder struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
}

// runLadder replays w's op stream at every rung up to its top, traced, for
// an equal share of p.seconds each, then the top rung once more untraced
// (the difference is the tracing overhead). It prints the budget table,
// writes the spans to <outDir>/<workload>.spans.jsonl and returns every
// per-layer metric; metrics of layers the workload does not reach are 0.
func runLadder(w *workload, p params, out io.Writer) (*ladder, error) {
	lad := &ladder{values: map[string]float64{}}
	v := lad.values
	for _, d := range perLayerMetrics {
		v[d.name] = 0
	}
	p.seconds /= float64(w.top + 2)
	runRung := func(r rung, trace bool) (*measurement, error) {
		p.trace = trace
		m := newMeasurement(w, r, p)
		if err := measure(m, w, r, p, time.Now()); err != nil {
			return nil, err
		}
		lad.attempted += m.attempted
		lad.failed += m.failed
		if lad.firstErr == nil {
			lad.firstErr = m.firstErr
		}
		runtime.GC() // the next rung starts with this one's heap released
		return m, nil
	}
	var ms [rungProxy + 1]*measurement
	var spans []span
	for r := rungFTL; r <= w.top; r++ {
		m, err := runRung(r, true)
		if err != nil {
			return nil, err
		}
		ms[r] = m
		for i := max(0, m.nspans-len(m.spans)); i < m.nspans; i++ {
			s := m.spans[i%len(m.spans)]
			if s.Parent == "" && r < w.top {
				s.Parent = (r + 1).String() // a rung's op is part of the op of the rung above
			}
			spans = append(spans, s)
		}
		v["trace.spans"] += float64(m.nspans)
	}
	plain, err := runRung(w.top, false)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_frac"] = ms[w.top].usPerOp()/plain.usPerOp() - 1
	if err := writeSpans(filepath.Join(p.outDir, w.name+".spans.jsonl"), spans); err != nil {
		return nil, err
	}
	unitCosts(w, p, v)

	// Counters of the lowest rung: the flash and FTL work one host op causes.
	ftlM, top := ms[rungFTL], ms[w.top]
	ops := float64(ftlM.ops)
	b, a := ftlM.before, ftlM.after
	v["flash.programs_per_op"] = float64(a.flash.Programs-b.flash.Programs) / ops
	v["flash.reads_per_op"] = float64(a.flash.Reads-b.flash.Reads) / ops
	v["flash.erases_per_kop"] = float64(a.flash.Erases-b.flash.Erases) / ops * 1e3
	lanes := float64(flash.TestGeometry().Lanes()) // blocks per multi-plane program or erase
	v["flash.us_per_op"] = v["flash.programs_per_op"]/lanes*v["flash.program_mp_us"] +
		v["flash.reads_per_op"]*v["flash.read_ns"]/1e3 +
		v["flash.erases_per_kop"]/1e3/lanes*v["flash.erase_mp_us"]

	// Counters of the top rung: everything the workload really did.
	ops = float64(top.ops)
	b, a = top.before, top.after
	hostW := float64(a.ftl.HostWrites - b.ftl.HostWrites)
	v["flash.read_retries_per_kop"] = float64(a.flash.ReadRetries-b.flash.ReadRetries) / ops * 1e3
	v["flash.chip_util"] = ratio(a.chipUS-b.chipUS, float64(a.chips)*top.simUS)
	v["core.pair_checks_per_assembly"] = ratio(float64(a.pairs-b.pairs), float64(a.asm-b.asm))
	v["core.assemblies_per_kop"] = float64(a.asm-b.asm) / ops * 1e3
	v["ftl.gc_pages_per_host_write"] = ratio(float64(a.ftl.GCWrites-b.ftl.GCWrites), hostW)
	v["ftl.gc_runs_per_kop"] = float64(a.ftl.GCRuns-b.ftl.GCRuns) / ops * 1e3
	v["ftl.gc_stalls_per_kop"] = float64(a.ftl.GCStalls-b.ftl.GCStalls) / ops * 1e3
	v["ftl.gc_steps_per_kop"] = float64(a.ftl.GCSteps-b.ftl.GCSteps) / ops * 1e3
	v["ftl.flushes_per_kop"] = float64(a.ftl.Flushes-b.ftl.Flushes) / ops * 1e3
	v["server.accepted"] = float64(a.srv.Accepted - b.srv.Accepted)
	v["server.responses"] = float64(a.srv.Responses - b.srv.Responses)
	v["server.rejected"] = float64(a.srv.Rejected - b.srv.Rejected)
	v["server.bytes_in_per_op"] = float64(a.srv.BytesIn-b.srv.BytesIn) / ops
	v["server.bytes_out_per_op"] = float64(a.srv.BytesOut-b.srv.BytesOut) / ops
	v["tcp.sys_cpu_frac"] = float64(top.end.sysNS-top.start.sysNS) / 1e3 / ops / top.cpuPerOp()
	v["go.ctx_switches_per_op"] = float64(top.end.ctxSwitch-top.start.ctxSwitch) / ops
	v["go.gc_cycles"] = float64(top.end.gcCycles - top.start.gcCycles)
	v["go.gc_pause_total_ms"] = float64(top.end.gcPauseNS-top.start.gcPauseNS) / 1e6
	v["go.heap_inuse_mb"] = float64(top.end.heapInuse) / (1 << 20)
	v["go.goroutines_peak"] = float64(top.peakGoroutines)
	legs := 1.0
	if w.top >= rungVolume {
		var sum, most float64
		for i := range a.devReqs {
			n := float64(a.devReqs[i] - b.devReqs[i])
			sum, most = sum+n, max(most, n)
		}
		legs = sum / ops
		v["volume.legs_per_op"] = legs
		v["volume.backend_imbalance"] = ratio(most*float64(len(a.devReqs)), sum)
		v["volume.retries"] = float64(top.vol.Retries)
		v["volume.repairs"] = float64(top.vol.Repairs)
		v["proxy.accepted"] = float64(a.proxy.Accepted - b.proxy.Accepted)
		v["proxy.responses"] = float64(a.proxy.Responses - b.proxy.Responses)
	}
	if w.top >= rungMem {
		wall := make([]float64, len(top.lat))
		for i, ns := range top.lat {
			wall[i] = float64(ns) / 1e3
		}
		wall = sorted(wall)
		v["client.lat_p999_us"] = quantile(wall, 0.999)
		v["client.lat_max_us"] = quantile(wall, 1)
		v["client.start_us"] = meanSpanUS(spans, w.top.String()+".start")
		v["client.wait_us"] = meanSpanUS(spans, w.top.String()+".wait")
	}
	if m := ms[rungSSD]; m != nil {
		v["ssd.sim_gc_time_frac"] = m.simGCFrac
	}

	// The ladder proper, per host op at each rung: wall and CPU µs and
	// allocations, and each layer's self time — its rung's CPU time minus
	// what the rungs below account for. CPU, because it adds up: client and
	// server overlap on two cores, so wall time per op is not additive.
	type row struct {
		name                    string
		wall, cpu, allocs, self float64
	}
	flashUS := v["flash.us_per_op"]
	rows := []row{{name: "flash", wall: flashUS, cpu: flashUS, self: flashUS}}
	for r := rungFTL; r <= w.top; r++ {
		m, below := ms[r], rows[len(rows)-1].cpu
		if r == rungVolume {
			below *= legs // every leg is one op of the rung below
		}
		rows = append(rows, row{r.String(), m.usPerOp(), m.cpuPerOp(), m.allocsPerOp(), m.cpuPerOp() - below})
	}
	for r, rw := range rows[1:] {
		l := rung(r).layer()
		v[l+".us_per_op"], v[l+".self_us_per_op"], v[l+".allocs_per_op"] = rw.wall, rw.self, rw.allocs
	}
	v["ftl.write_us"], v["ftl.read_us"] = ftlKindCosts(ftlM)

	topRow := rows[len(rows)-1]
	fmt.Fprintf(out, "%s budget, per host op (untraced top rung %.3f us wall, tracing overhead %+.1f%%)\n",
		w.name, topRow.wall/(1+v["trace.overhead_frac"]), 100*v["trace.overhead_frac"])
	fmt.Fprintf(out, "  %-8s %10s %10s %10s %10s %8s\n", "rung", "wall us", "cpu us", "allocs", "self cpu", "of top")
	for i, rw := range rows {
		share := rw.self / topRow.cpu
		if w.top >= rungVolume && i <= int(rungTCP)+1 {
			share *= legs
		}
		fmt.Fprintf(out, "  %-8s %10.3f %10.3f %10.2f %10.3f %7.1f%%\n", rw.name, rw.wall, rw.cpu, rw.allocs, rw.self, 100*share)
	}
	return lad, nil
}

// ftlKindCosts is the mean wall latency of the ftl rung's sampled ops, by
// op kind.
func ftlKindCosts(m *measurement) (writeUS, readUS float64) {
	var sum [2]float64
	var n [2]float64
	for i, ns := range m.lat {
		k := 0
		if m.kinds[i] {
			k = 1
		}
		sum[k] += float64(ns) / 1e3
		n[k]++
	}
	return ratio(sum[1], n[1]), ratio(sum[0], n[0])
}

func meanSpanUS(spans []span, name string) float64 {
	var sum, n float64
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.EndNS-s.StartNS) / 1e3
			n++
		}
	}
	return ratio(sum, n)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sink keeps the unit-cost loops' results alive.
var sink float64

// timeLoop returns the mean wall time of one call of fn over n calls, in ns.
func timeLoop(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// unitCosts times public functions of single layers in isolation, on
// inputs shaped like w's (payload size, read/write mix).
func unitCosts(w *workload, p params, v map[string]float64) {
	arr := newArray(0, p.blocks)
	arr.SetBorrowPayloads(true) // as under the FTL: pages keep the slices they are given
	g := arr.Geometry()
	r := rng(p.seed)

	k := arr.Kernel()
	v["pv.program_latency_ns"] = timeLoop(1<<17, func(i int) {
		c := pv.Coord{Chip: i % g.Chips, Plane: i % g.PlanesPerChip, Block: i % g.BlocksPerPlane, Layer: i % g.Layers, String: i % g.Strings}
		sink += k.ProgramLatency(c, i%1000, uint64(i))
	})

	// One pass programs every word-line of every block as 8-lane multi-plane
	// programs (feeding the latencies to a QSTR-MED scheme, as the FTL's
	// gathering does), reads pages back, and erases every block row.
	scheme, err := core.NewScheme(g, deviceConfig(w).FTL.K)
	if err != nil {
		panic(err) // K and the geometry are constants of this file
	}
	lanes := make([]flash.BlockAddr, g.Lanes())
	payload := make([]byte, w.payload)
	pages := make([][][]byte, g.Lanes())
	for i := range pages {
		pages[i] = [][]byte{payload, payload, payload}
	}
	row := func(blk int) []flash.BlockAddr {
		for l := range lanes {
			chip, plane := g.LaneChipPlane(l)
			lanes[l] = flash.BlockAddr{Chip: chip, Plane: plane, Block: blk}
		}
		return lanes
	}
	var pgmNS, ersNS, readNS float64
	const passes = 3
	results := make([]flash.MultiOpResult, g.LWLsPerBlock())
	for pass := 0; pass < passes; pass++ {
		for blk := 0; blk < g.BlocksPerPlane; blk++ {
			addrs := row(blk)
			pgmNS += timeLoop(len(results), func(lwl int) {
				res, err := arr.ProgramMulti(addrs, lwl, pages)
				if err != nil {
					panic(err)
				}
				results[lwl] = res
			})
			for lwl, res := range results {
				for i, a := range addrs {
					if err := scheme.NoteProgram(a, lwl, res.PerMember[i]); err != nil {
						panic(err)
					}
				}
			}
		}
		readNS += timeLoop(1<<15, func(int) {
			chip, plane := g.LaneChipPlane(int(r.intn(int64(g.Lanes()))))
			res, err := arr.Read(flash.PageAddr{
				BlockAddr: flash.BlockAddr{Chip: chip, Plane: plane, Block: int(r.intn(int64(g.BlocksPerPlane)))},
				LWL:       int(r.intn(int64(g.LWLsPerBlock()))), Type: pv.PageType(r.intn(int64(pv.NumPageTypes))),
			})
			if err != nil {
				panic(err)
			}
			sink += res.Latency
		})
		ersNS += timeLoop(g.BlocksPerPlane, func(blk int) {
			res, err := arr.EraseMulti(row(blk))
			if err != nil {
				panic(err)
			}
			sink += res.Latency
		})
	}
	v["flash.program_mp_us"] = pgmNS / float64(passes*g.BlocksPerPlane) / 1e3
	v["flash.read_ns"] = readNS / passes
	v["flash.erase_mp_us"] = ersNS / passes / 1e3

	// Assemble superblocks until the free pool is empty, refill, repeat.
	var asmNS, asm float64
	for round := 0; round < 64; round++ {
		for blk := 0; blk < g.BlocksPerPlane; blk++ {
			for _, a := range row(blk) {
				if err := scheme.AddFree(a); err != nil {
					panic(err)
				}
			}
		}
		t0 := time.Now()
		for i := 0; scheme.FreeCount() > 0; i++ {
			if _, err := scheme.AssembleInto(lanes[:0], core.Speed(i%2)); err != nil {
				panic(err)
			}
			asm++
		}
		asmNS += float64(time.Since(t0).Nanoseconds())
	}
	v["core.assemble_us"] = asmNS / asm / 1e3

	// The codec, on w's mix: writes carry the payload out, reads carry it back.
	const n = 1 << 16
	isWrite := func(i int) bool { return float64(i%100) < w.writeFrac*100 }
	var buf []byte
	frames, resps := make([][]byte, 100), make([][]byte, 100)
	for i := range frames {
		f, rs := server.Frame{Op: server.OpRead, ID: uint64(i), LPN: int64(i)}, server.Response{ID: uint64(i), Payload: payload}
		if isWrite(i) {
			f.Op, f.Payload, rs.Payload = server.OpWrite, payload, nil
		}
		frames[i], _ = server.AppendFrame(nil, f)
		resps[i], _ = server.AppendResponse(nil, rs)
	}
	u0 := readUsage()
	v["proto.encode_frame_ns"] = timeLoop(n, func(i int) {
		f := server.Frame{Op: server.OpRead, ID: uint64(i), LPN: int64(i), Arrival: float64(i)}
		if isWrite(i) {
			f.Op, f.Payload = server.OpWrite, payload
		}
		buf, _ = server.AppendFrame(buf[:0], f)
	})
	v["proto.decode_frame_ns"] = timeLoop(n, func(i int) {
		f, _, _ := server.DecodeFrame(frames[i%100])
		sink += float64(f.LPN)
	})
	v["proto.encode_resp_ns"] = timeLoop(n, func(i int) {
		rs := server.Response{ID: uint64(i), Latency: float64(i)}
		if !isWrite(i) {
			rs.Payload = payload
		}
		buf, _ = server.AppendResponse(buf[:0], rs)
	})
	v["proto.decode_resp_ns"] = timeLoop(n, func(i int) {
		rs, _, _ := server.DecodeResponse(resps[i%100])
		sink += rs.Latency
	})
	v["proto.allocs_per_roundtrip"] = float64(readUsage().mallocs-u0.mallocs) / n

	slots := make([]int64, volBackends)
	for i := range slots {
		slots[i] = 1 << 10
	}
	place, err := volume.NewPlacement(int64(volBackends)<<10/volReplicas*volStripe, volStripe, slots, volReplicas)
	if err != nil {
		panic(err)
	}
	locs := make([]volume.Loc, 0, volReplicas)
	v["volume.locate_ns"] = timeLoop(1<<18, func(i int) {
		out, _ := place.Locate(r.intn(place.Space()), locs)
		sink += float64(out[0].SLPN)
	})
}
