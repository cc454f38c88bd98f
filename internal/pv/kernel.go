// Latency kernel: a precomputed cache of the model's static (seed- and
// coordinate-derived) latency components over a fixed array geometry.
//
// Every latency the model produces splits into a *static* part — a pure
// function of (seed, coordinates), identical on every call — and a *dynamic*
// part: wear drift (a function of the block's live P/E count), the chip's
// temperature shift, and per-measurement jitter (a function of the caller's
// nonce). The direct methods recompute both parts from hashes on every call;
// ProgramLatency alone walks the whole string-class pattern (two hashes and
// two Box-Muller draws per string) plus layer, block and word-line components
// — ~20 normal draws per call. The kernel computes the static sum once per
// block, stores it in flat per-LWL tables, and applies only the dynamic terms
// at call time, in exactly the order the direct method would, so results are
// bit-for-bit identical (float64 addition is order-dependent; see the
// property test in kernel_test.go and DESIGN.md §8).
//
// Concurrency: tables are sharded per chip and published with an atomic
// compare-and-swap. Readers are lock-free; racing fills build identical
// tables (the build is a pure function of seed and coordinates), and the CAS
// just discards all but one. This is what lets ssd.ConcurrentDevice's
// per-chip workers and the parallel experiment sweeps share one kernel with
// no contention.
package pv

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"superfast/internal/prng"
)

// Kernel caches the static latency components of a Model over a fixed
// (chips × planes × blocks-per-plane) geometry. Obtain one from
// Model.Kernel; it is safe for concurrent use. Coordinates outside the
// kernel's geometry fall back to the direct model methods, so a kernel is
// always safe to use as a drop-in for the model it wraps.
type Kernel struct {
	m              *Model
	chips          int
	planes         int
	blocksPerPlane int
	layers         int
	strings        int
	lwls           int // layers * strings
	shards         []kernelShard
}

// kernelShard holds one chip's tables plus the chip-constant dynamic terms.
// Per-chip sharding keeps concurrent fills from different chips on different
// cache lines and mirrors how ConcurrentDevice partitions its workers.
type kernelShard struct {
	pgmTemp float64 // tempShift(chip, PgmTempCoeff), fixed per model
	ersTemp float64 // tempShift(chip, ErsTempCoeff)
	blocks  []atomic.Pointer[blockTables]
}

// blockTables is the per-block static cache. pgmStatic[i] holds the exact
// left-to-right partial sum of ProgramLatency's seven static terms for LWL
// i = layer*strings + string; the jitter hash bases are the per-coordinate
// hashes that the direct methods XOR with the caller's nonce.
// readStatic, the static read term per (LWL, page type), is built on the
// block's first read: blocks that are never read do not pay for it.
type blockTables struct {
	readOnce    sync.Once // a CAS would box the slice header: a second object
	readStatic  []float64 // len lwls·NumPageTypes, set under readOnce
	pgmStatic   []float64 // len lwls: static program sum per logical word-line
	pgmJitterH  []uint64  // len lwls: program jitter hash base per LWL
	ersStatic   float64   // static erase sum (base + chip + corr + local + spike)
	ersJitterH  uint64    // erase jitter hash base
	readJitterH uint64    // read jitter hash base (shared by all pages of the block)
	endurance   int       // P/E endurance limit (fully static)
	rberBlk     float64   // per-block RBER multiplier exp(span·z)
}

// Kernel returns the cached-latency kernel for the given geometry, building
// it on first use. Kernels are memoized per dimension set, so every consumer
// of one model instance — the flash array, the characterization testbed, the
// experiment sweeps — shares the same tables. Safe for concurrent use.
func (m *Model) Kernel(chips, planes, blocksPerPlane int) *Kernel {
	if chips <= 0 || planes <= 0 || blocksPerPlane <= 0 {
		panic(fmt.Sprintf("pv: kernel dimensions must be positive, got %d×%d×%d",
			chips, planes, blocksPerPlane))
	}
	m.kmu.Lock()
	defer m.kmu.Unlock()
	for _, k := range m.kernels {
		if k.chips == chips && k.planes == planes && k.blocksPerPlane == blocksPerPlane {
			return k
		}
	}
	k := &Kernel{
		m:              m,
		chips:          chips,
		planes:         planes,
		blocksPerPlane: blocksPerPlane,
		layers:         m.p.Layers,
		strings:        m.p.Strings,
		lwls:           m.p.Layers * m.p.Strings,
		shards:         make([]kernelShard, chips),
	}
	for c := range k.shards {
		k.shards[c].pgmTemp = m.tempShift(c, m.p.PgmTempCoeff)
		k.shards[c].ersTemp = m.tempShift(c, m.p.ErsTempCoeff)
		k.shards[c].blocks = make([]atomic.Pointer[blockTables], planes*blocksPerPlane)
	}
	m.kernels = append(m.kernels, k)
	return k
}

// Model returns the model the kernel caches.
func (k *Kernel) Model() *Model { return k.m }

func (k *Kernel) inRange(chip, plane, block int) bool {
	return chip >= 0 && chip < k.chips &&
		plane >= 0 && plane < k.planes &&
		block >= 0 && block < k.blocksPerPlane
}

// tables returns the block's static cache, building it on first touch.
// Lock-free: a racing builder loses the CAS and adopts the winner's tables,
// which are identical because the build is pure.
func (k *Kernel) tables(chip, plane, block int) *blockTables {
	slot := &k.shards[chip].blocks[plane*k.blocksPerPlane+block]
	if t := slot.Load(); t != nil {
		return t
	}
	t := k.build(chip, plane, block)
	if slot.CompareAndSwap(nil, t) {
		return t
	}
	return slot.Load()
}

// build computes one block's static tables. Every component is evaluated by
// the same code path (or an inlined copy accumulating in the same order) as
// the direct methods, so the cached sums carry the exact rounding of the
// uncached computation.
func (k *Kernel) build(chip, plane, block int) *blockTables {
	m := k.m
	p := &m.p
	t := &blockTables{
		pgmStatic:  make([]float64, k.lwls),
		pgmJitterH: make([]uint64, k.lwls),
	}

	// String offsets are block-constant per string: compute the class raws
	// once, accumulating the mean in ascending string order exactly like
	// stringOffset does on every direct call (on the stack up to 8 strings).
	class := m.StringClass(chip, plane, block)
	var rawBuf [8]float64
	raws := rawBuf[:0]
	sum := 0.0
	for s := 0; s < k.strings; s++ {
		base := p.StringClassSigma * prng.NormalFromHash(prng.Hash(p.Seed, domStringClassPattern, class, s))
		idio := p.StringIdioSigma * prng.NormalFromHash(prng.Hash(p.Seed, domStringLocal, chip, plane, block, s))
		raws = append(raws, base+idio)
		sum += raws[s]
	}
	mean := sum / float64(p.Strings)
	hasScale := p.StringScaleSigma > 0
	scale := 1.0
	if hasScale {
		scale = math.Exp(p.StringScaleSigma * prng.NormalFromHash(prng.Hash(p.Seed, domStringScale, chip, plane, block)))
	}

	bpo := m.BlockPgmOffset(chip, plane, block)
	for layer := 0; layer < k.layers; layer++ {
		lp := m.layerProfile(layer)
		clo := m.chipLayerOffset(chip, layer)
		blo := m.blockLayerOffset(Coord{Chip: chip, Plane: plane, Block: block, Layer: layer})
		for s := 0; s < k.strings; s++ {
			so := raws[s] - mean
			if hasScale {
				so *= scale
			}
			c := Coord{Chip: chip, Plane: plane, Block: block, Layer: layer, String: s}
			// The same seven-term left-to-right sum as ProgramLatency.
			i := layer*k.strings + s
			t.pgmStatic[i] = p.PgmBase + lp + clo + so + bpo + blo + m.wlStatic(c)
			t.pgmJitterH[i] = prng.Hash(p.Seed, domPgmJitter, chip, plane, block, layer, s)
		}
	}

	// The same five-term left-to-right sum as EraseLatency.
	t.ersStatic = p.ErsBase +
		p.ChipErsSigma*prng.NormalFromHash(prng.Hash(p.Seed, domChipErs, chip)) +
		p.ErsCorrCoeff*bpo +
		p.ErsLocalSigma*prng.NormalFromHash(prng.Hash(p.Seed, domErsLocal, chip, plane, block)) +
		m.ErsSpike(chip, plane, block)
	t.ersJitterH = prng.Hash(p.Seed, domErsJitter, chip, plane, block)
	t.readJitterH = prng.Hash(p.Seed, domReadJitter, chip, plane, block)
	t.endurance = m.Endurance(chip, plane, block)
	t.rberBlk = math.Exp(p.RBERBlockSpan * prng.NormalFromHash(prng.Hash(p.Seed, domRBER, chip, plane, block)))
	return t
}

// ProgramLatency is Model.ProgramLatency served from the cache: the static
// seven-term sum is a table load, and only wear, temperature, jitter,
// quantization and the floor run per call — in the direct method's order.
func (k *Kernel) ProgramLatency(c Coord, pe int, nonce uint64) float64 {
	if !k.inRange(c.Chip, c.Plane, c.Block) ||
		c.Layer < 0 || c.Layer >= k.layers || c.String < 0 || c.String >= k.strings {
		return k.m.ProgramLatency(c, pe, nonce)
	}
	t := k.tables(c.Chip, c.Plane, c.Block)
	p := &k.m.p
	i := c.Layer*k.strings + c.String
	v := t.pgmStatic[i]
	v += p.PgmWearCoeff * float64(pe)
	v += k.shards[c.Chip].pgmTemp
	if p.PgmJitterSigma > 0 || p.PgmWearNoise > 0 {
		sig := p.PgmJitterSigma + p.PgmWearNoise*float64(pe)/1000
		v += sig * prng.NormalFromHash(prng.SplitMix64(t.pgmJitterH[i]^nonce))
	}
	v = quantize(v, p.PgmStep)
	if min := p.PgmBase * 0.5; v < min {
		v = min
	}
	return v
}

// ProgramLatencyBlock fills dst[layer*strings+string] with the program
// latency of every logical word-line of one block at the given P/E count,
// drawing per-word-line jitter from consecutive nonces: entry i uses
// nonce0+1+i, exactly the stream a caller looping ProgramLatency over
// (layer, string) in index order with a pre-incremented nonce consumes.
// The arithmetic runs in ProgramLatency's order term for term, so the
// filled row is bit-identical to the per-call loop — the batch only hoists
// the table lookup, the wear/temperature terms and the jitter sigma out of
// the per-word-line work. Returns false (dst untouched) when the block is
// outside the kernel's range or dst does not cover the block's word-lines;
// callers then fall back to the per-call path.
func (k *Kernel) ProgramLatencyBlock(chip, plane, block, pe int, nonce0 uint64, dst []float64) bool {
	if !k.inRange(chip, plane, block) || len(dst) != k.lwls {
		return false
	}
	t := k.tables(chip, plane, block)
	p := &k.m.p
	wear := p.PgmWearCoeff * float64(pe)
	temp := k.shards[chip].pgmTemp
	jitter := p.PgmJitterSigma > 0 || p.PgmWearNoise > 0
	sig := p.PgmJitterSigma + p.PgmWearNoise*float64(pe)/1000
	min := p.PgmBase * 0.5
	for i := range dst {
		v := t.pgmStatic[i]
		v += wear
		v += temp
		if jitter {
			v += sig * prng.NormalFromHash(prng.SplitMix64(t.pgmJitterH[i]^(nonce0+1+uint64(i))))
		}
		v = quantize(v, p.PgmStep)
		if v < min {
			v = min
		}
		dst[i] = v
	}
	return true
}

// EraseLatency is Model.EraseLatency served from the cache.
func (k *Kernel) EraseLatency(chip, plane, block, pe int, nonce uint64) float64 {
	if !k.inRange(chip, plane, block) {
		return k.m.EraseLatency(chip, plane, block, pe, nonce)
	}
	t := k.tables(chip, plane, block)
	p := &k.m.p
	v := t.ersStatic
	v += p.ErsWearCoeff * float64(pe)
	v += k.shards[chip].ersTemp
	if p.ErsJitterSigma > 0 {
		v += p.ErsJitterSigma * prng.NormalFromHash(prng.SplitMix64(t.ersJitterH^nonce))
	}
	v = quantize(v, p.ErsStep)
	if min := p.ErsBase * 0.5; v < min {
		v = min
	}
	return v
}

// ReadLatency is Model.ReadLatency served from the cache: the static sense
// term is a table load, and only the jitter and the floor run per call.
func (k *Kernel) ReadLatency(c Coord, t PageType, nonce uint64) float64 {
	if !k.inRange(c.Chip, c.Plane, c.Block) ||
		c.Layer < 0 || c.Layer >= k.layers || c.String < 0 || c.String >= k.strings {
		return k.m.ReadLatency(c, t, nonce)
	}
	if t < 0 || t >= NumPageTypes {
		panic(fmt.Sprintf("pv: invalid page type %d", int(t)))
	}
	bt := k.tables(c.Chip, c.Plane, c.Block)
	p := &k.m.p
	v := k.readTable(bt, c.Chip, c.Plane, c.Block)[(c.Layer*k.strings+c.String)*int(NumPageTypes)+int(t)]
	if p.ReadJitter > 0 {
		v += p.ReadJitter * prng.NormalFromHash(prng.SplitMix64(bt.readJitterH^nonce))
	}
	if min := p.ReadBase[t] * 0.5; v < min {
		v = min
	}
	return v
}

// readTable returns the block's static read terms, built on first use with
// Model.ReadLatency's own expression.
func (k *Kernel) readTable(bt *blockTables, chip, plane, block int) []float64 {
	bt.readOnce.Do(func() {
		p := &k.m.p
		t := make([]float64, 0, k.lwls*int(NumPageTypes))
		for layer := 0; layer < k.layers; layer++ {
			for s := 0; s < k.strings; s++ {
				for ty := 0; ty < int(NumPageTypes); ty++ {
					t = append(t, p.ReadBase[ty]+p.ReadSigma*prng.NormalFromHash(prng.Hash(p.Seed, domRead, chip, plane, block, layer, s, ty)))
				}
			}
		}
		bt.readStatic = t
	})
	return bt.readStatic
}

// Endurance is Model.Endurance served from the cache (it is fully static).
func (k *Kernel) Endurance(chip, plane, block int) int {
	if !k.inRange(chip, plane, block) {
		return k.m.Endurance(chip, plane, block)
	}
	return k.tables(chip, plane, block).endurance
}

// RBER is Model.RBER with the per-block multiplier served from the cache.
func (k *Kernel) RBER(c Coord, pe int, retention float64) float64 {
	if !k.inRange(c.Chip, c.Plane, c.Block) {
		return k.m.RBER(c, pe, retention)
	}
	t := k.tables(c.Chip, c.Plane, c.Block)
	p := &k.m.p
	r := p.RBERBase * t.rberBlk *
		math.Exp(p.RBERPECoeff*float64(pe)/1000) *
		math.Exp(p.RBERRetCoeff*retention)
	if r > 0.5 {
		r = 0.5
	}
	return r
}
