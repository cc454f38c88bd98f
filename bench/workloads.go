package main

import (
	"encoding/binary"
	"math"
)

// A rung is one level of the stack a workload's op stream can be replayed
// at. The ladder (-trace 1) runs every rung at or below a workload's top so
// that one host op has a cost at every level, in one unit.
type rung int

const (
	rungFTL    rung = iota // direct FTL.Write / FTL.Read
	rungSSD                // ConcurrentDevice.Submit
	rungMem                // client <-> server over the in-memory conn pair
	rungTCP                // client <-> server over TCP loopback
	rungVolume             // Volume.Start*/Wait over four TCP backends
	rungProxy              // client -> Proxy -> Volume -> four TCP backends
)

var rungNames = [...]string{"ftl", "ssd", "mem", "tcp", "volume", "proxy"}

func (r rung) String() string { return rungNames[r] }

// layer is the package whose cost a rung adds to the one below it, the
// prefix of that rung's per-layer metrics: what the in-memory rung adds to
// a bare Submit is the server (and client) code, minus the kernel.
func (r rung) layer() string {
	if r == rungMem {
		return "server"
	}
	return rungNames[r]
}

// sample is the share of ops whose wall latency the generator times: every
// op where a round trip costs microseconds, one in 64 where a call costs
// less than the two clock reads would.
func (r rung) sample() int {
	if r <= rungSSD {
		return 64
	}
	return 1
}

// maxDepth is the queue depth set-up runs at (fill and preconditioning are
// not the workload, so they need not crawl at its depth) and the largest a
// workload may use: every driver and target has this many in-flight slots.
const maxDepth = 32

// workload is one traffic mix. Every constant is frozen here: nothing about
// the offered load is computed from a measurement at run time, so two
// commits always receive the same inputs for the same seed.
type workload struct {
	name string
	why  string
	top  rung // the level the end-to-end run drives

	depth     int     // closed-loop queue depth of the one generator
	writeFrac float64 // share of ops that are writes
	hotCold   bool    // 80% of ops on the first 20% of the LPN space
	payload   int     // bytes per written page
	gcStep    int     // ftl.Config.GCStepPages (0 = blocking GC)

	// gapUS is the mean of the Poisson arrival gap on the simulated clock,
	// chosen once so flash.chip_util reads 0.4-0.6 at seed 1 (README,
	// "Arrival-gap calibration").
	gapUS float64

	precond int // random overwrites after the fill, before the stream starts
	warmOps int // ops of the stream issued before timing starts
	winOps  int // ops per measurement window
	simOps  int // ops of the timed phase the simulated-clock metrics cover
}

var workloads = []workload{
	{
		name: "dev-churn",
		why:  "in-process Submit, 80% hot/cold writes under blocking GC: ftl, flash, pv and core do all the work, server, client and volume none",
		top:  rungSSD, depth: 1, writeFrac: 0.8, hotCold: true, payload: 64,
		gapUS: 800, warmOps: 70000, winOps: 1 << 18, simOps: 2 << 20,
	},
	{
		name: "wire-read-qd32",
		why:  "depth-32 random 64 B reads over TCP loopback: smallest frames, so per-message cost in client, server, proto and syscalls dominates",
		top:  rungTCP, depth: 32, payload: 64,
		gapUS: 31, precond: 14000, warmOps: 30000, winOps: 1 << 15, simOps: 300000,
	},
	{
		name: "wire-read-qd1",
		why:  "the same stack at depth 1: latency-bound ping-pong with nothing to batch, where a coalescing change must show no change",
		top:  rungTCP, depth: 1, payload: 64,
		gapUS: 31, precond: 14000, warmOps: 15000, winOps: 1 << 13, simOps: 200000,
	},
	{
		name: "wire-write-qd32",
		why:  "depth-32 hot/cold 4 KiB writes with stepped GC: per-byte codec and copy cost plus the FTL write path and GC under the device mutex",
		top:  rungTCP, depth: 32, writeFrac: 1, hotCold: true, payload: 4096, gcStep: 8,
		gapUS: 1000, warmOps: 55000, winOps: 1 << 14, simOps: 250000,
	},
	{
		name: "vol-mixed-4x2",
		why:  "depth-32 50/50 reads and 4 KiB writes through proxy and a 4-backend 2-replica volume: scatter/gather, placement and fan-out dominate",
		top:  rungProxy, depth: 32, writeFrac: 0.5, payload: 4096,
		gapUS: 240, warmOps: 55000, winOps: 1 << 13, simOps: 120000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// rng is SplitMix64: the benchmark's only source of randomness, so the
// program under test receives nothing but inputs derived from -seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64     { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// op is one generated host request.
type op struct {
	write   bool
	lpn     int64
	arrival float64 // simulated-clock stamp, µs; 0 = "now" (fill only)
}

// generator produces a workload's op stream and keeps the shadow map the
// outputs are verified against.
type generator struct {
	w         *workload
	r         rng
	space     int64
	writeFrac float64 // w.writeFrac, except 1 while set-up preconditions
	clock     float64 // simulated clock of the last arrival, µs

	// ver is the shadow map: the version last written to each LPN. An LPN
	// with an op in flight is never drawn again until that op completes
	// (inflight, a ring of the last depth LPNs), so every read has exactly
	// one correct answer even though a server handles a connection's
	// requests concurrently. In a FIFO closed loop the in-flight set is a
	// function of the stream alone, so the redraws are deterministic.
	ver      []uint32
	inflight []int64
	n        int
}

func newGenerator(w *workload, seed uint64, space int64) *generator {
	g := &generator{w: w, r: rng(seed), space: space, writeFrac: w.writeFrac, ver: make([]uint32, space)}
	g.setDepth(maxDepth)
	return g
}

// setDepth changes the closed loop's queue depth. Nothing may be in flight.
func (g *generator) setDepth(n int) {
	g.inflight = make([]int64, n)
	for i := range g.inflight {
		g.inflight[i] = -1
	}
}

func (g *generator) busy(lpn int64) bool {
	for _, l := range g.inflight {
		if l == lpn {
			return true
		}
	}
	return false
}

func (g *generator) draw() int64 {
	if !g.w.hotCold {
		return g.r.intn(g.space)
	}
	hot := g.space / 5
	if g.r.float() < 0.8 {
		return g.r.intn(hot)
	}
	return hot + g.r.intn(g.space-hot)
}

// next returns the next op of the stream and, for a write, advances the
// shadow map to the version its payload must carry.
func (g *generator) next() op {
	o := op{write: g.r.float() < g.writeFrac}
	for o.lpn = g.draw(); g.busy(o.lpn); {
		o.lpn = g.draw()
	}
	g.clock += -g.w.gapUS * math.Log(1-g.r.float())
	o.arrival = g.clock
	g.note(o)
	return o
}

// note records an op as issued: its LPN is in flight for the next depth
// ops and a write bumps the shadow version.
func (g *generator) note(o op) {
	g.inflight[g.n%len(g.inflight)] = o.lpn
	g.n++
	if o.write {
		g.ver[o.lpn]++
	}
}

// Payload layout: lpn (8) | version (4) | ^version (4) | filler | lpn (8).
// The filler is a fixed pattern so a full compare is one memcmp.
var filler = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}()

func stamp(buf []byte, lpn int64, ver uint32) {
	copy(buf, filler[:len(buf)])
	binary.LittleEndian.PutUint64(buf, uint64(lpn))
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], ^ver)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], uint64(lpn))
}

// stampOK reports whether data is exactly the payload stamp would build.
func stampOK(data []byte, size int, lpn int64, ver uint32) bool {
	if len(data) != size {
		return false
	}
	le := binary.LittleEndian
	if le.Uint64(data) != uint64(lpn) || le.Uint32(data[8:]) != ver || le.Uint32(data[12:]) != ^ver ||
		le.Uint64(data[size-8:]) != uint64(lpn) {
		return false
	}
	return string(data[16:size-8]) == string(filler[16:size-8])
}
