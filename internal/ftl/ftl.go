// Package ftl implements a superblock-based page-mapping flash translation
// layer on top of the simulated NAND array: logical-to-physical mapping,
// super-word-line write buffering (one multi-plane program fills the same
// word-line of every member block), greedy garbage collection, and the
// QSTR-MED integration the paper describes — gathering per-word-line program
// latencies in the write path, assembling fast/slow superblocks on demand,
// and routing host writes to fast superblocks and GC traffic to slow ones
// (function-based placement, §V-D).
package ftl

import (
	"errors"
	"fmt"

	"superfast/internal/core"
	"superfast/internal/flash"
	"superfast/internal/prng"
	"superfast/internal/profile"
	"superfast/internal/pv"
	"superfast/internal/telemetry"
)

// Errors returned by the FTL.
var (
	ErrUnmapped    = errors.New("ftl: logical page not mapped")
	ErrOutOfRange  = errors.New("ftl: logical page out of range")
	ErrDeviceFull  = errors.New("ftl: no reclaimable space left")
	ErrPayloadSize = errors.New("ftl: payload exceeds page size")
)

// Organizer selects how free blocks are grouped into superblocks.
type Organizer int

// Organizer kinds. QSTRMed is the paper's scheme; the others are baselines
// for end-to-end comparisons.
const (
	QSTRMed       Organizer = iota // similarity check + on-demand fast/slow assembly
	SequentialOrg                  // lowest free block index on every lane
	RandomOrg                      // arbitrary free block per lane
)

func (o Organizer) String() string {
	switch o {
	case QSTRMed:
		return "qstr-med"
	case SequentialOrg:
		return "sequential"
	case RandomOrg:
		return "random"
	}
	return fmt.Sprintf("Organizer(%d)", int(o))
}

// Hint classifies a host write for page-type-aware placement inside the
// super-word-line (§V-D: small random data to high-speed superpages, large
// batch data to slower superpages).
type Hint int

// Write hints.
const (
	HintNone  Hint = iota
	HintSmall      // prefer fast (LSB) page slots
	HintBatch      // prefer slow (MSB) page slots
)

// VictimPolicy selects how GC chooses its victim superblock.
type VictimPolicy int

// Victim policies.
const (
	// Greedy takes the superblock with the fewest valid pages — optimal for
	// uniform traffic, prone to moving hot data on skewed traffic.
	Greedy VictimPolicy = iota
	// CostBenefit weighs reclaimed space against copy cost and age
	// ((1−u)·age / 2u): old, mostly-invalid superblocks win, so hot data
	// gets time to invalidate itself before it is copied.
	CostBenefit
	// FIFO collects superblocks in sealing order regardless of contents.
	FIFO
)

func (p VictimPolicy) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case CostBenefit:
		return "cost-benefit"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("VictimPolicy(%d)", int(p))
}

// Config parameterizes the FTL.
type Config struct {
	Overprovision float64   // fraction of pages withheld from the logical space
	GCThreshold   int       // run GC when assemblable superblocks drop to this count
	K             int       // QSTR-MED candidate window
	Organizer     Organizer // superblock organization policy
	Seed          uint64    // randomness for RandomOrg
	// WearLambda biases GC victim selection away from worn-out superblocks:
	// the victim score is validPages + WearLambda × meanPE, so heavily
	// cycled blocks rest while fresher ones absorb erases. Zero disables
	// wear-aware selection (pure greedy).
	WearLambda float64
	// RAID dedicates one rotating lane of every superblock to parity pages;
	// a page whose ECC fails even after retries is reconstructed from its
	// super-word-line peers. Costs 1/lanes of the capacity.
	RAID bool
	// AutoHint turns on write-frequency detection (§V-D: the scheme
	// "detects the types of written data"): unhinted host writes to pages
	// rewritten often are placed like HintSmall writes (fast LSB
	// superpages) automatically.
	AutoHint bool
	// Victim selects the GC victim policy (default Greedy).
	Victim VictimPolicy
	// MapCachePages enables DFTL-style cached mapping: only this many
	// translation pages stay in RAM; misses cost MapReadUS and dirty
	// evictions MapProgramUS of extra latency. Zero keeps the whole table
	// in RAM (no charge).
	MapCachePages int
	MapReadUS     float64
	MapProgramUS  float64
	// GCStepPages enables preemptive partial GC: a GCStep relocates at most
	// this many valid pages (the erase is its own step) so the device can
	// interleave host traffic with reclamation. Zero keeps the classic
	// blocking behavior — the write path collects whole superblocks inline
	// whenever the free pool drops below GCThreshold.
	GCStepPages int
	// GCSoftThreshold is the free-pool watermark (assemblable superblocks)
	// at which incremental GC steps start in preemptive mode. It must sit at
	// or above GCThreshold, the hard floor maybeGC refills to when the pool
	// runs dry, so ensureFree can never fail spuriously. Zero defaults to
	// GCThreshold — the same trigger point as blocking GC, which keeps the
	// steady-state free level (and therefore the effective overprovisioning
	// and WAF) identical to blocking mode. Raising it starts reclamation
	// earlier at the cost of holding more superblocks free. Ignored in
	// blocking mode.
	GCSoftThreshold int
}

// DefaultConfig returns a typical configuration: 12% overprovisioning,
// GC at two free superblocks, the paper's K = 4 candidate window.
func DefaultConfig() Config {
	return Config{
		Overprovision: 0.12, GCThreshold: 2, K: 4, Organizer: QSTRMed, Seed: 1,
		MapReadUS: 60, MapProgramUS: 1700,
	}
}

// Stats aggregates FTL activity.
type Stats struct {
	HostWrites uint64 // pages written by the host
	HostReads  uint64
	GCWrites   uint64 // pages relocated by garbage collection
	GCRuns     uint64
	// GCLatency is the flash time spent inside garbage collection (victim
	// reads, relocation flushes, erases) — the share of FlushLatency/
	// EraseLatency/ReadLatency that host requests should not be charged for.
	GCLatency float64
	// GCSteps counts preemptive partial-GC steps (GCStep calls that did
	// work). Zero in blocking mode.
	GCSteps uint64
	// GCStalls counts blocking collections forced at the hard GCThreshold
	// floor — in preemptive mode, the times incremental stepping could not
	// keep up and a host write absorbed a full collection.
	GCStalls uint64
	// GCStarved counts the times GC was needed (free pool below the
	// threshold being enforced) but no reclaimable victim existed — every
	// sealed superblock 100% valid. The device then runs degraded; without
	// this counter that state was silent.
	GCStarved    uint64
	Flushes      uint64  // multi-plane super-word-line programs
	Erases       uint64  // superblock erases
	BadBlocks    uint64  // blocks retired after erase failure
	PatrolReads  uint64  // pages scanned by Patrol
	Refreshes    uint64  // pages relocated because their error count neared the ECC limit
	FlushLatency float64 // µs spent in multi-plane programs
	EraseLatency float64 // µs spent in multi-plane erases
	ReadLatency  float64
	ExtraPgm     float64 // extra latency accumulated across programs
	ExtraErs     float64
	// ExtraEWMA is an exponentially weighted moving average of per-command
	// extra latency (α = 1/8) across multi-plane programs and erases — the
	// "how straggly is the device right now" signal the flight recorder
	// samples.
	ExtraEWMA   float64
	RAIDRepairs uint64 // pages reconstructed from parity
}

// extraEWMAAlpha weights the newest multi-plane command's extra latency in
// Stats.ExtraEWMA.
const extraEWMAAlpha = 1.0 / 8

// WAF returns the write amplification factor.
func (s Stats) WAF() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

type superblock struct {
	id       int
	members  []flash.BlockAddr
	speed    core.Speed
	valid    int
	sealed   bool
	sealedAt uint64 // flush sequence number at sealing time
}

type openState struct {
	sb     *superblock
	nextWL int
	parity int        // parity member index, -1 without RAID
	data   [][][]byte // pending payloads, [member][pageType]
	lpns   [][]int64  // pending LPNs, -1 = empty slot
	seqs   [][]uint64 // write sequence per pending slot
	fill   int
}

// dataSlots returns the number of user-data slots per super word-line.
func (st *openState) dataSlots() int {
	n := len(st.sb.members)
	if st.parity >= 0 {
		n--
	}
	return n * flash.PagesPerLWL
}

// FlashOp records one chip-level flash operation the FTL issued, for
// device-level timing models that schedule per-chip occupancy.
type FlashOp struct {
	Chip int
	Dur  float64 // µs the chip is busy
	Kind byte    // 'r' read, 'p' program, 'e' erase
	GC   bool    // issued inside garbage collection (victim reads, relocation
	// programs, erases, patrol refreshes) — the attribution device tracers
	// need to tell a GC pause from host work on the same chip
}

// FTL is the flash translation layer. Not safe for concurrent use.
type FTL struct {
	arr    *flash.Array
	geo    flash.Geometry
	cfg    Config
	scheme *core.Scheme

	l2p    []int64 // LPN → PPN, -1 unmapped
	p2l    []int64 // PPN → LPN, -1 invalid
	sbs    map[int]*superblock
	bySB   []*superblock // dense block index (see blockIdx) → owning superblock
	open   map[core.Speed]*openState
	logLen int64

	nextSBID int
	stats    Stats
	rng      *prng.Source
	journal  bool
	ops      []FlashOp // journal of chip ops since the last TakeOps
	gcDepth  int       // >0 while executing GC (collect / patrol refresh)
	// gcq holds the in-flight garbage collections: victims pulled out of the
	// superblock table with a resume cursor each. Non-empty between partial
	// GC steps, and after a collection failed mid-relocation — the cursor is
	// what makes the error path crash-consistent instead of orphaning the
	// victim.
	gcq      []*gcState
	softGC   int       // free-pool watermark where incremental GC starts
	hot      *hotness  // write-frequency detector (AutoHint)
	mcache   *mapCache // DFTL translation cache (nil = full table in RAM)
	writeSeq uint64    // global write sequence for spare-area tags
	met      *ftlMetrics
	attr     *telemetry.Attribution
	attrKeys []telemetry.BlockKey // scratch for recordAttr, reused across calls
	gcObs    func(GCEvent)        // observer for completed GC work, nil = off

	// Hot-path arenas. A page write used to allocate its payload copy, its
	// spare-area tag, and — across a P/E cycle — fresh open-superblock
	// buffers, superblock records and GC cursors, all of which die at the
	// next erase. Instead, the array's erase hook (SetRecycler) hands tag
	// and payload buffers back, seals recycle openStates, and completed
	// collections recycle superblocks and cursors, so steady-state churn
	// reuses the same arena instead of feeding the garbage collector.
	own        PayloadOwnership
	bufPool    [][]byte      // erased payload buffers (CopyRecycle only)
	tagPool    [][]byte      // erased spare-area tag buffers
	statePool  []*openState  // openStates recycled at seal
	sbPool     []*superblock // superblock records recycled after their erase
	gcPool     []*gcState    // collection cursors recycled at completion
	flushPages [][][]byte    // flush scratch: per-member page table
	flushOOBs  [][][]byte    // flush scratch: per-member OOB rows (reused)
	flushLats  []float64     // per-member latency scratch (programMultiOOB)
	opsBuf     [2][]FlashOp  // double-buffered journal slabs for CollectOps
	opsCur     int
}

// PayloadOwnership selects what the FTL does with the payload slice a write
// hands it. The choice is per front end: it changes who may reuse buffers,
// never the stored bytes or any latency.
type PayloadOwnership int

const (
	// CopyAlways copies every payload into a fresh buffer — safe against any
	// caller, the historical default for direct FTL users.
	CopyAlways PayloadOwnership = iota
	// CopyRecycle copies payloads into buffers recycled from erased blocks.
	// Requires that no caller holds a reference to previously read page data
	// across subsequent writes (an erase may hand the buffer to a new write):
	// the serial ssd.Device qualifies because every read it serves copies
	// into the completion before the next request runs.
	CopyRecycle
	// BorrowHost stores the caller's slice directly (zero copy). The caller
	// transfers ownership and must never mutate the buffer afterwards.
	// Erased payload buffers are NOT recycled in this mode, so completions
	// that alias flash pages stay stable; only tag buffers (FTL-internal)
	// are reused. ssd.ConcurrentDevice qualifies: each request's payload is
	// decoded or built fresh per submission.
	BorrowHost
)

// SetPayloadOwnership switches the write-path payload policy. Call while no
// operation is in flight and no previously returned read data is retained.
func (f *FTL) SetPayloadOwnership(o PayloadOwnership) { f.own = o }

// recycle is the array's erase hook: buffers the erased block held come back
// to the arenas instead of the garbage collector. Tag buffers are always
// FTL-owned; payload buffers only in CopyRecycle mode (see BorrowHost).
func (f *FTL) recycle(buf []byte, oob bool) {
	if oob {
		if len(buf) == tagBytes {
			f.tagPool = append(f.tagPool, buf)
		}
		return
	}
	if f.own == CopyRecycle {
		f.bufPool = append(f.bufPool, buf)
	}
}

// payloadSlab is how many payload buffers one cold-pool refill carves from a
// single slab allocation in CopyRecycle mode. Like the tag pool, the payload
// pool starts empty and only erases feed it, so a fresh device's first
// overwrite pass would otherwise pay one malloc per page written.
const payloadSlab = 32

// takePayload returns the buffer to store for an incoming page write under
// the ownership policy. Empty payloads stay nil, preserving the zero-transfer
// semantics of metadata-only writes.
func (f *FTL) takePayload(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	if f.own == BorrowHost {
		return data
	}
	if f.own == CopyRecycle {
		for n := len(f.bufPool); n > 0; n = len(f.bufPool) {
			buf := f.bufPool[n-1]
			f.bufPool = f.bufPool[:n-1]
			if cap(buf) < len(data) {
				continue // wrong-sized stray; drop it
			}
			buf = buf[:len(data)]
			copy(buf, data)
			return buf
		}
		// Cold pool: refill from a slab sized to this write. Full slice
		// expressions cap every cut so no buffer can grow into its
		// neighbor; same-sized writes (the common case — hosts write
		// whole pages) drain the refill before the next slab.
		sz := len(data)
		slab := make([]byte, sz*payloadSlab)
		for i := 1; i < payloadSlab; i++ {
			f.bufPool = append(f.bufPool, slab[i*sz:(i+1)*sz:(i+1)*sz])
		}
		buf := slab[0:sz:sz]
		copy(buf, data)
		return buf
	}
	return append([]byte(nil), data...)
}

// GCEvent reports one completed unit of garbage-collection work to the
// observer installed with SetGCObserver: either one preemptive GCStep
// (Blocking false) or one blocking refill that stalled a host write
// (Blocking true, with the moves and latency summed over the collections the
// refill ran). Events fire synchronously from the FTL's single-threaded
// call context, so the observer needs no locking against the FTL itself.
type GCEvent struct {
	Moves    int     // valid pages relocated
	Erased   bool    // a deferred multi-plane erase ran (steps only)
	Latency  float64 // µs of flash work issued
	Blocking bool    // the work stalled a host write (collectUntil path)
}

// SetGCObserver wires (or, with nil, unwires) a callback invoked after each
// unit of GC work. Device front ends use it to attach page-relocation counts
// to their latency ledgers. Call while no operation is in flight.
func (f *FTL) SetGCObserver(fn func(GCEvent)) { f.gcObs = fn }

// ftlMetrics caches the registry counters the FTL hot paths bump, so a
// wired registry costs one atomic add per event and an unwired one costs a
// single nil check.
type ftlMetrics struct {
	hostWrites   *telemetry.Counter
	hostReads    *telemetry.Counter
	gcWrites     *telemetry.Counter
	gcRuns       *telemetry.Counter
	gcSteps      *telemetry.Counter
	gcStalls     *telemetry.Counter
	gcStarved    *telemetry.Gauge
	flushes      *telemetry.Counter
	erases       *telemetry.Counter
	assembleFast *telemetry.Counter
	assembleSlow *telemetry.Counter
}

// SetMetrics wires (or, with nil, unwires) a telemetry registry into the
// FTL: host/GC write and read counts, flushes, erases, GC runs, and
// superblock assemblies by speed class are counted live under the "ftl."
// prefix. Call while no operation is in flight.
func (f *FTL) SetMetrics(m *telemetry.Metrics) {
	if m == nil {
		f.met = nil
		return
	}
	f.met = &ftlMetrics{
		hostWrites:   m.Counter("ftl.writes.host"),
		hostReads:    m.Counter("ftl.reads.host"),
		gcWrites:     m.Counter("ftl.writes.gc"),
		gcRuns:       m.Counter("ftl.gc.runs"),
		gcSteps:      m.Counter("ftl.gc.steps"),
		gcStalls:     m.Counter("ftl.gc.stalls"),
		gcStarved:    m.Gauge("ftl.gc.starved"),
		flushes:      m.Counter("ftl.flushes"),
		erases:       m.Counter("ftl.erases"),
		assembleFast: m.Counter("ftl.assemble.fast"),
		assembleSlow: m.Counter("ftl.assemble.slow"),
	}
}

// SetAttribution wires (or, with nil, unwires) a straggler attribution table:
// every multi-plane program and erase reports its member blocks and
// per-member latencies, so the table can charge the extra latency (max − min)
// to the slowest member. Call while no operation is in flight. The FTL
// records under its own serialized execution, so with a deterministic request
// order the table's report is byte-identical across runs.
func (f *FTL) SetAttribution(a *telemetry.Attribution) { f.attr = a }

// recordAttr reports one multi-plane command to the attribution table. The
// member-key scratch slice is reused so the disabled path costs one nil check
// and the enabled path does not allocate per command.
func (f *FTL) recordAttr(kind byte, fast bool, members []flash.BlockAddr, lats []float64) {
	if f.attr == nil {
		return
	}
	if cap(f.attrKeys) < len(members) {
		f.attrKeys = make([]telemetry.BlockKey, len(members))
	}
	keys := f.attrKeys[:len(members)]
	for i, m := range members {
		keys[i] = telemetry.BlockKey{Chip: m.Chip, Plane: m.Plane, Block: m.Block}
	}
	f.attr.Record(kind, f.gcDepth > 0, fast, keys, lats)
}

// New builds an FTL over the array. All blocks start free.
func New(arr *flash.Array, cfg Config) (*FTL, error) {
	geo := arr.Geometry()
	if cfg.Overprovision < 0 || cfg.Overprovision >= 0.9 {
		return nil, fmt.Errorf("ftl: overprovision %v out of range [0, 0.9)", cfg.Overprovision)
	}
	if cfg.GCThreshold < 1 {
		return nil, fmt.Errorf("ftl: GC threshold must be at least 1, got %d", cfg.GCThreshold)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("ftl: K must be positive, got %d", cfg.K)
	}
	if cfg.GCStepPages < 0 {
		return nil, fmt.Errorf("ftl: GC step pages must be non-negative, got %d", cfg.GCStepPages)
	}
	softGC := cfg.GCSoftThreshold
	if softGC == 0 {
		softGC = cfg.GCThreshold
	}
	if softGC < cfg.GCThreshold {
		return nil, fmt.Errorf("ftl: GC soft threshold %d below hard threshold %d", softGC, cfg.GCThreshold)
	}
	scheme, err := core.NewScheme(geo, cfg.K)
	if err != nil {
		return nil, err
	}
	totalPages := geo.TotalBlocks() * geo.PagesPerBlock()
	if cfg.RAID && geo.Lanes() < 2 {
		return nil, fmt.Errorf("ftl: RAID needs at least 2 lanes")
	}
	dataFrac := 1.0
	if cfg.RAID {
		dataFrac = float64(geo.Lanes()-1) / float64(geo.Lanes())
	}
	logLen := int64(float64(totalPages) * dataFrac * (1 - cfg.Overprovision))
	f := &FTL{
		arr:    arr,
		geo:    geo,
		cfg:    cfg,
		scheme: scheme,
		l2p:    make([]int64, logLen),
		p2l:    make([]int64, totalPages),
		sbs:    make(map[int]*superblock),
		bySB:   make([]*superblock, geo.TotalBlocks()),
		open:   make(map[core.Speed]*openState),
		logLen: logLen,
		rng:    prng.New(cfg.Seed, 0xf71),
		softGC: softGC,
	}
	if cfg.AutoHint {
		f.hot = newHotness(logLen, uint64(4*logLen), 3)
	}
	if cfg.MapCachePages > 0 {
		f.mcache = newMapCache(cfg.MapCachePages)
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for lane := 0; lane < geo.Lanes(); lane++ {
		chip, plane := geo.LaneChipPlane(lane)
		for b := 0; b < geo.BlocksPerPlane; b++ {
			if err := scheme.AddFree(flash.BlockAddr{Chip: chip, Plane: plane, Block: b}); err != nil {
				return nil, err
			}
		}
	}
	// Every buffer the FTL programs is built fresh per flush (host data is
	// copied into the write buffer on entry, parity and OOB tags are
	// assembled in flush) and released right after, so the array can keep
	// the slices instead of copying them again. The erase hook closes the
	// loop: buffers a dying block held feed the write path's arenas.
	arr.SetBorrowPayloads(true)
	arr.SetRecycler(f.recycle)
	return f, nil
}

// Capacity returns the number of logical pages the FTL exposes.
func (f *FTL) Capacity() int64 { return f.logLen }

// Geometry returns the geometry of the underlying array.
func (f *FTL) Geometry() flash.Geometry { return f.geo }

// Array returns the underlying flash array (for reliability inspection).
func (f *FTL) Array() *flash.Array { return f.arr }

// WearSummary reports the spread of erase counts across all blocks — the
// wear-leveling view of the device.
type WearSummary struct {
	MinPE   int
	MaxPE   int
	MeanPE  float64
	Retired int
}

// Wear computes the current wear summary.
func (f *FTL) Wear() WearSummary {
	w := WearSummary{MinPE: int(^uint(0) >> 1)}
	total := 0
	n := 0
	for lane := 0; lane < f.geo.Lanes(); lane++ {
		chip, plane := f.geo.LaneChipPlane(lane)
		for b := 0; b < f.geo.BlocksPerPlane; b++ {
			addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: b}
			pe, err := f.arr.PECycles(addr)
			if err != nil {
				continue
			}
			if f.scheme.Retired(addr) {
				w.Retired++
				continue
			}
			if pe < w.MinPE {
				w.MinPE = pe
			}
			if pe > w.MaxPE {
				w.MaxPE = pe
			}
			total += pe
			n++
		}
	}
	if n == 0 {
		w.MinPE = 0
		return w
	}
	w.MeanPE = float64(total) / float64(n)
	return w
}

// Stats returns a copy of the accumulated statistics.
func (f *FTL) Stats() Stats { return f.stats }

// EnableOpJournal turns on chip-level operation recording for TakeOps.
// Off by default so direct FTL users don't accumulate an undrained journal.
func (f *FTL) EnableOpJournal() { f.journal = true }

// TakeOps drains and returns the chip-level operations issued since the
// previous call. Device timing models use it to schedule per-chip busy time.
func (f *FTL) TakeOps() []FlashOp {
	ops := f.ops
	f.ops = nil
	return ops
}

// CollectOps runs fn with a clean operation journal and returns exactly the
// chip-level operations fn issued. Device front-ends use it to tie journal
// entries to one request: unlike bare TakeOps bracketing, operations left
// behind by an earlier failed call can never leak into the next request's
// schedule. fn's error is returned alongside whatever operations were
// journalled before it failed. Recording must be enabled with
// EnableOpJournal for ops to be collected.
//
// The journal alternates between two FTL-owned slabs, so the returned slice
// stays valid until the caller's second-next CollectOps — device front ends
// consume it before dispatching the next request, which keeps the per-request
// schedule allocation-free.
func (f *FTL) CollectOps(fn func() error) ([]FlashOp, error) {
	f.opsCur ^= 1
	f.ops = f.opsBuf[f.opsCur][:0]
	err := fn()
	ops := f.ops
	f.opsBuf[f.opsCur] = ops // keep any growth for the next round
	f.ops = nil
	return ops, err
}

func (f *FTL) noteOp(chip int, dur float64, kind byte) {
	if !f.journal {
		return
	}
	f.ops = append(f.ops, FlashOp{Chip: chip, Dur: dur, Kind: kind, GC: f.gcDepth > 0})
}

// Scheme returns the underlying QSTR-MED instance (also used by the
// baseline organizers for free-pool bookkeeping).
func (f *FTL) Scheme() *core.Scheme { return f.scheme }

// OpenFill returns the number of buffered pages pending in the open
// superblock of the given speed class, or 0 when none is open — the assembly
// pool levels the flight recorder samples.
func (f *FTL) OpenFill(speed core.Speed) int {
	if st := f.open[speed]; st != nil {
		return st.fill
	}
	return 0
}

// blockIdx is a block's dense index, ppn / PagesPerBlock of any of its pages.
func (f *FTL) blockIdx(addr flash.BlockAddr) int {
	return addr.Lane(f.geo)*f.geo.BlocksPerPlane + addr.Block
}

// sbOf returns the superblock a block belongs to, nil when it is in none.
func (f *FTL) sbOf(addr flash.BlockAddr) *superblock { return f.bySB[f.blockIdx(addr)] }

// ppn computes the flat physical page number of a block page.
func (f *FTL) ppn(addr flash.BlockAddr, lwl int, typ pv.PageType) int64 {
	return int64(f.blockIdx(addr)*f.geo.PagesPerBlock() + lwl*flash.PagesPerLWL + int(typ))
}

// ppnLocate inverts ppn.
func (f *FTL) ppnLocate(ppn int64) (addr flash.BlockAddr, lwl int, typ pv.PageType) {
	pages := int64(f.geo.PagesPerBlock())
	blockIdx := int(ppn / pages)
	in := int(ppn % pages)
	lane := blockIdx / f.geo.BlocksPerPlane
	chip, plane := f.geo.LaneChipPlane(lane)
	return flash.BlockAddr{Chip: chip, Plane: plane, Block: blockIdx % f.geo.BlocksPerPlane},
		in / flash.PagesPerLWL, pv.PageType(in % flash.PagesPerLWL)
}

// assembleSuperblock obtains a new superblock of the requested speed from
// the configured organizer.
func (f *FTL) assembleSuperblock(speed core.Speed) (*superblock, error) {
	// Superblock records cycle: collected victims come back through the
	// pool, so the member slice assembled into is recycled storage too.
	var sb *superblock
	if n := len(f.sbPool); n > 0 {
		sb = f.sbPool[n-1]
		f.sbPool = f.sbPool[:n-1]
	} else {
		sb = &superblock{}
	}
	var members []flash.BlockAddr
	var err error
	dst := sb.members[:0]
	switch f.cfg.Organizer {
	case QSTRMed:
		members, err = f.scheme.AssembleInto(dst, speed)
	case SequentialOrg:
		members, err = f.assembleZip(dst, false)
	case RandomOrg:
		members, err = f.assembleZip(dst, true)
	default:
		return nil, fmt.Errorf("ftl: unknown organizer %v", f.cfg.Organizer)
	}
	if err != nil {
		f.sbPool = append(f.sbPool, sb)
		return nil, err
	}
	if f.met != nil {
		if speed == core.Fast {
			f.met.assembleFast.Inc()
		} else {
			f.met.assembleSlow.Inc()
		}
	}
	*sb = superblock{id: f.nextSBID, members: members, speed: speed}
	f.nextSBID++
	f.sbs[sb.id] = sb
	for _, m := range members {
		f.bySB[f.blockIdx(m)] = sb
	}
	return sb, nil
}

// assembleZip implements the baseline organizers through the scheme's free
// pools: sequential pairs the lowest free block index of every lane (the
// organization common in shipping SSDs); random takes an arbitrary free
// block per lane.
func (f *FTL) assembleZip(dst []flash.BlockAddr, random bool) ([]flash.BlockAddr, error) {
	return f.scheme.AssembleArbitraryInto(dst, func(entries []profile.Entry) int {
		if random {
			return f.rng.Intn(len(entries))
		}
		min := 0
		for i, e := range entries {
			if e.Block < entries[min].Block {
				min = i
			}
		}
		return min
	})
}

// openFor returns the open superblock state for a speed class, assembling a
// fresh superblock if needed (running GC first when free blocks are low).
func (f *FTL) openFor(speed core.Speed) (*openState, error) {
	if st := f.open[speed]; st != nil {
		return st, nil
	}
	if err := f.ensureFree(speed); err != nil {
		return nil, err
	}
	sb, err := f.assembleSuperblock(speed)
	if err != nil {
		return nil, err
	}
	st := f.newOpenState(sb)
	f.open[speed] = st
	return st, nil
}

// newOpenState returns a cleared buffer state for a freshly assembled (or,
// for RecoverByScan, rediscovered) superblock, reusing a state recycled at
// seal time when one of the right shape is available.
func (f *FTL) newOpenState(sb *superblock) *openState {
	nl := len(sb.members)
	if n := len(f.statePool); n > 0 && len(f.statePool[n-1].data) == nl {
		st := f.statePool[n-1]
		f.statePool = f.statePool[:n-1]
		st.sb = sb
		st.nextWL = 0
		st.parity = f.parityLane(sb.id, nl)
		st.fill = 0
		for i := 0; i < nl; i++ {
			for t := 0; t < flash.PagesPerLWL; t++ {
				st.data[i][t] = nil
				st.lpns[i][t] = -1
				st.seqs[i][t] = 0
			}
		}
		return st
	}
	st := &openState{sb: sb, parity: f.parityLane(sb.id, nl), data: make([][][]byte, nl),
		lpns: make([][]int64, nl), seqs: make([][]uint64, nl)}
	for i := 0; i < nl; i++ {
		st.data[i] = make([][]byte, flash.PagesPerLWL)
		st.lpns[i] = make([]int64, flash.PagesPerLWL)
		st.seqs[i] = make([]uint64, flash.PagesPerLWL)
		for t := range st.lpns[i] {
			st.lpns[i][t] = -1
		}
	}
	return st
}

// slotFor picks the next free buffer slot honoring the placement hint:
// small-hinted data prefers LSB (fast) slots, batch-hinted data MSB (slow)
// slots; otherwise slots fill lane-major in page-type order. The parity
// lane (RAID) never takes user data.
func (st *openState) slotFor(hint Hint) (lane, typ int, ok bool) {
	typeOrder := [][]int{
		HintNone:  {0, 1, 2},
		HintSmall: {0, 1, 2},
		HintBatch: {2, 1, 0},
	}[hint]
	if hint == HintSmall || hint == HintBatch {
		// Scan type-major so hinted writes take every preferred slot first.
		for _, t := range typeOrder {
			for l := range st.lpns {
				if l == st.parity {
					continue
				}
				if st.lpns[l][t] == -1 {
					return l, t, true
				}
			}
		}
		return 0, 0, false
	}
	for l := range st.lpns {
		if l == st.parity {
			continue
		}
		for t := 0; t < flash.PagesPerLWL; t++ {
			if st.lpns[l][t] == -1 {
				return l, t, true
			}
		}
	}
	return 0, 0, false
}

// WriteResult reports one host or GC page write.
type WriteResult struct {
	Latency float64 // µs of flash work triggered by this write (HostLatency + GCLatency)
	// HostLatency is the share of Latency the host request itself caused:
	// mapping-cache charges plus the super-word-line flush it triggered.
	HostLatency float64
	// GCLatency is the share of Latency spent in garbage collection the write
	// tripped (blocking collections at the hard watermark). Zero when GC did
	// not run; device front ends account it separately from host service time.
	GCLatency float64
	Flushed   bool    // a super-word-line program was issued
	GCMoves   int     // pages relocated by GC triggered from this write
	ExtraPgm  float64 // extra latency of the flush's multi-plane program
}

// Write stores one logical page with default placement.
func (f *FTL) Write(lpn int64, data []byte) (WriteResult, error) {
	return f.WriteHinted(lpn, data, HintNone)
}

// WriteHinted stores one logical page with a placement hint.
func (f *FTL) WriteHinted(lpn int64, data []byte, hint Hint) (WriteResult, error) {
	if lpn < 0 || lpn >= f.logLen {
		return WriteResult{}, fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	if len(data) > f.geo.PageSize {
		return WriteResult{}, fmt.Errorf("%w: %d > %d", ErrPayloadSize, len(data), f.geo.PageSize)
	}
	mapLat := f.chargeMapAccess(lpn, true)
	if f.hot != nil && hint == HintNone {
		// Detected-hot pages take the fast LSB slots; everything else
		// yields them (batch placement), so the detector's classification
		// decides the superpage speed class.
		if f.hot.note(lpn) {
			hint = HintSmall
		} else {
			hint = HintBatch
		}
	}
	res, err := f.writeInternal(lpn, data, core.HostWrite, hint)
	if err != nil {
		return res, err
	}
	res.Latency += mapLat
	res.HostLatency += mapLat
	f.stats.HostWrites++
	if f.met != nil {
		f.met.hostWrites.Inc()
	}
	return res, nil
}

func (f *FTL) writeInternal(lpn int64, data []byte, class core.WriteClass, hint Hint) (WriteResult, error) {
	speed := core.SpeedFor(class)
	// Take ownership of the payload before openFor can run GC: a collection
	// erases blocks (feeding the recycle pool), and on the GC path `data`
	// still aliases the flash page being relocated — copying at entry means
	// the popped destination buffer can never be the page still being read.
	owned := f.takePayload(data)
	st, err := f.openFor(speed)
	if err != nil {
		return WriteResult{}, err
	}
	lane, typ, ok := st.slotFor(hint)
	if !ok {
		return WriteResult{}, fmt.Errorf("ftl: open superblock buffer full (internal error)")
	}
	// Invalidate any previous mapping.
	f.unmap(lpn)
	st.data[lane][typ] = owned
	st.lpns[lane][typ] = lpn
	f.writeSeq++
	st.seqs[lane][typ] = f.writeSeq
	st.fill++
	// Map immediately: the PPN is determined by the slot.
	ppn := f.ppn(st.sb.members[lane], st.nextWL, pv.PageType(typ))
	f.l2p[lpn] = ppn
	f.p2l[ppn] = lpn
	st.sb.valid++

	var res WriteResult
	if st.fill == st.dataSlots() {
		flushLat, extra, err := f.flush(speed)
		if err != nil {
			return res, err
		}
		res.Latency += flushLat
		res.HostLatency += flushLat
		res.ExtraPgm = extra
		res.Flushed = true
		// Blocking GC runs after flushes of host data, before space runs
		// out. In preemptive mode reclamation happens in GCStep increments
		// between requests instead, and nothing blocks here: an empty pool
		// only matters when a sealed stream needs a fresh superblock, and
		// ensureFree covers that (finishing the in-flight collection).
		if class == core.HostWrite && f.cfg.GCStepPages == 0 {
			moves, gcLat, err := f.maybeGC()
			if err != nil {
				return res, err
			}
			res.GCMoves = moves
			res.Latency += gcLat
			res.GCLatency += gcLat
		}
	}
	return res, nil
}

// flush programs the pending super word-line of the open superblock of the
// given speed and advances (or seals) it. Gathering hooks fire here.
func (f *FTL) flush(speed core.Speed) (latency, extra float64, err error) {
	st := f.open[speed]
	if st == nil || st.fill == 0 {
		return 0, 0, nil
	}
	// The page and OOB tables are FTL-owned scratch: the array keeps only
	// the per-page buffers (borrow mode), never the outer tables, so they
	// are rebuilt in place every flush instead of reallocated.
	nl := len(st.sb.members)
	if cap(f.flushPages) < nl {
		f.flushPages = make([][][]byte, nl)
		f.flushOOBs = make([][][]byte, nl)
	}
	pages := f.flushPages[:nl]
	oobs := f.flushOOBs[:nl]
	for i := range pages {
		pages[i] = st.data[i]
	}
	if st.parity >= 0 {
		parityPages := make([][]byte, flash.PagesPerLWL)
		for t := 0; t < flash.PagesPerLWL; t++ {
			var members [][]byte
			for l := range st.sb.members {
				if l == st.parity {
					continue
				}
				members = append(members, st.data[l][t])
			}
			parityPages[t] = buildParity(members)
		}
		pages[st.parity] = parityPages
	}
	// Spare-area tags: logical page + sequence + superblock identity, so a
	// flash scan can rebuild the mapping (RecoverByScan). Tag buffers come
	// back from the erase hook, so steady state reuses them.
	for l := 0; l < nl; l++ {
		if oobs[l] == nil {
			oobs[l] = make([][]byte, flash.PagesPerLWL)
		}
		for t := 0; t < flash.PagesPerLWL; t++ {
			lpn := int64(tagNoData)
			var seq uint64
			switch {
			case l == st.parity:
				lpn = tagParity
			case st.lpns[l][t] >= 0:
				lpn = st.lpns[l][t]
				seq = st.seqs[l][t]
			}
			oobs[l][t] = f.newTag(lpn, seq, st.sb.id, st.sb.speed)
		}
	}
	res, err := f.programMultiOOB(st.sb.members, st.nextWL, pages, oobs)
	if err != nil {
		return 0, 0, fmt.Errorf("ftl: flush: %w", err)
	}
	for i, m := range st.sb.members {
		if err := f.scheme.NoteProgram(m, st.nextWL, res.PerMember[i]); err != nil {
			return 0, 0, err
		}
		f.noteOp(m.Chip, res.PerMember[i], 'p')
	}
	f.stats.Flushes++
	if f.met != nil {
		f.met.flushes.Inc()
	}
	f.stats.FlushLatency += res.Latency
	f.stats.ExtraPgm += res.Extra
	f.stats.ExtraEWMA += extraEWMAAlpha * (res.Extra - f.stats.ExtraEWMA)
	f.recordAttr('p', st.sb.speed == core.Fast, st.sb.members, res.PerMember)
	st.nextWL++
	for i := range st.data {
		for t := range st.data[i] {
			st.data[i][t] = nil
			st.lpns[i][t] = -1
			st.seqs[i][t] = 0
		}
	}
	st.fill = 0
	if st.nextWL == f.geo.LWLsPerBlock() {
		st.sb.sealed = true
		st.sb.sealedAt = f.stats.Flushes
		delete(f.open, speed)
		// The buffer state dies with the stream; recycle it for the next
		// assembly instead of reallocating three tables per superblock.
		st.sb = nil
		f.statePool = append(f.statePool, st)
	}
	return res.Latency, res.Extra, nil
}

// unmap invalidates the current mapping of lpn, if any.
func (f *FTL) unmap(lpn int64) {
	ppn := f.l2p[lpn]
	if ppn < 0 {
		return
	}
	f.l2p[lpn] = -1
	f.p2l[ppn] = -1
	if sb := f.bySB[ppn/int64(f.geo.PagesPerBlock())]; sb != nil {
		sb.valid--
	}
}

// Locate reports where a logical page currently lives on flash. ok is false
// for out-of-range or unmapped pages.
func (f *FTL) Locate(lpn int64) (addr flash.BlockAddr, lwl int, typ pv.PageType, ok bool) {
	if lpn < 0 || lpn >= f.logLen || f.l2p[lpn] < 0 {
		return flash.BlockAddr{}, 0, 0, false
	}
	addr, lwl, typ = f.ppnLocate(f.l2p[lpn])
	return addr, lwl, typ, true
}

// PageTypeOf returns the TLC page type the logical page currently occupies,
// or -1 if unmapped.
func (f *FTL) PageTypeOf(lpn int64) pv.PageType {
	if lpn < 0 || lpn >= f.logLen || f.l2p[lpn] < 0 {
		return -1
	}
	_, _, typ := f.ppnLocate(f.l2p[lpn])
	return typ
}

// Trim discards a logical page.
func (f *FTL) Trim(lpn int64) error {
	if lpn < 0 || lpn >= f.logLen {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	f.unmap(lpn)
	return nil
}

// ReadResult reports one host read.
type ReadResult struct {
	Data      []byte
	Latency   float64 // µs
	FromCache bool    // served from the open superblock's write buffer
}

// Read returns the current contents of a logical page.
func (f *FTL) Read(lpn int64) (ReadResult, error) {
	if lpn < 0 || lpn >= f.logLen {
		return ReadResult{}, fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	ppn := f.l2p[lpn]
	if ppn < 0 {
		return ReadResult{}, fmt.Errorf("%w: %d", ErrUnmapped, lpn)
	}
	f.stats.HostReads++
	if f.met != nil {
		f.met.hostReads.Inc()
	}
	mapLat := f.chargeMapAccess(lpn, false)
	addr, lwl, typ := f.ppnLocate(ppn)
	// Pending pages live in the open superblock buffers.
	if data, ok := f.bufferedPage(addr, lwl, typ, lpn); ok {
		return ReadResult{Data: data, FromCache: true, Latency: mapLat}, nil
	}
	data, lat, err := f.readPage(addr, lwl, typ)
	if err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Data: data, Latency: lat + mapLat}, nil
}

// readPage reads one flash page, reconstructing it from parity when the ECC
// gives up and RAID is enabled.
func (f *FTL) readPage(addr flash.BlockAddr, lwl int, typ pv.PageType) ([]byte, float64, error) {
	r, err := f.arr.Read(flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: typ})
	f.stats.ReadLatency += r.Latency
	f.noteOp(addr.Chip, r.Latency, 'r')
	if err == nil {
		return r.Data, r.Latency, nil
	}
	if !errors.Is(err, flash.ErrUncorrectable) || !f.cfg.RAID {
		return nil, r.Latency, err
	}
	sb := f.sbOf(addr)
	if sb == nil {
		return nil, r.Latency, err
	}
	lane := -1
	for i, m := range sb.members {
		if m == addr {
			lane = i
			break
		}
	}
	if lane < 0 {
		return nil, r.Latency, err
	}
	before := f.stats.ReadLatency
	data, rerr := f.reconstruct(sb, lane, lwl, typ)
	lat := r.Latency + (f.stats.ReadLatency - before)
	if rerr != nil {
		return nil, lat, rerr
	}
	return data, lat, nil
}

// ReadRange reads n consecutive logical pages starting at lpn, exploiting
// superpage parallelism: pages that live on the same super word-line of the
// same superblock are sensed with one parallel multi-plane read whose cost
// is the slowest member, not the sum (§II-B). It returns the payloads and
// the total flash latency.
func (f *FTL) ReadRange(lpn int64, n int) ([][]byte, float64, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("ftl: ReadRange length %d", n)
	}
	if lpn < 0 || lpn+int64(n) > f.logLen {
		return nil, 0, fmt.Errorf("%w: [%d, %d)", ErrOutOfRange, lpn, lpn+int64(n))
	}
	out := make([][]byte, n)
	var latency float64

	// Group flash-resident pages by (superblock, word-line); everything
	// else (buffered pages) is served instantly, and unmapped pages fail.
	type groupKey struct {
		sb  int
		lwl int
	}
	type member struct {
		idx  int
		addr flash.PageAddr
	}
	groups := make(map[groupKey][]member)
	var orderedKeys []groupKey
	for i := 0; i < n; i++ {
		cur := lpn + int64(i)
		ppn := f.l2p[cur]
		if ppn < 0 {
			return nil, latency, fmt.Errorf("%w: %d", ErrUnmapped, cur)
		}
		addr, lwl, typ := f.ppnLocate(ppn)
		if data, ok := f.bufferedPage(addr, lwl, typ, cur); ok {
			out[i] = data
			continue
		}
		sb := f.sbOf(addr)
		if sb == nil {
			return nil, latency, fmt.Errorf("ftl: page %d outside any superblock", ppn)
		}
		k := groupKey{sb: sb.id, lwl: lwl}
		if _, seen := groups[k]; !seen {
			orderedKeys = append(orderedKeys, k)
		}
		groups[k] = append(groups[k], member{idx: i, addr: flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: typ}})
	}
	for _, k := range orderedKeys {
		ms := groups[k]
		// Page-type siblings share a lane; a multi-plane read takes one
		// page per lane, so split the group by page type. Iterate the types
		// in their fixed order, not map order: the journal entries this loop
		// emits set the chip dispatch schedule, which must not vary between
		// runs of the same trace.
		byType := map[pv.PageType][]member{}
		for _, m := range ms {
			byType[m.addr.Type] = append(byType[m.addr.Type], m)
		}
		for typ := pv.PageType(0); int(typ) < flash.PagesPerLWL; typ++ {
			sub, ok := byType[typ]
			if !ok {
				continue
			}
			addrs := make([]flash.PageAddr, len(sub))
			for i, m := range sub {
				addrs[i] = m.addr
			}
			results, op, err := f.arr.ReadMulti(addrs)
			if err != nil {
				// Fall back to per-page reads (with RAID reconstruction).
				for _, m := range sub {
					data, lat, rerr := f.readPage(m.addr.BlockAddr, m.addr.LWL, m.addr.Type)
					if rerr != nil {
						return nil, latency, rerr
					}
					latency += lat
					f.stats.HostReads++
					out[m.idx] = data
				}
				continue
			}
			latency += op.Latency
			f.stats.HostReads += uint64(len(sub))
			f.stats.ReadLatency += op.Latency
			// One multi-plane command occupies each chip once, for its
			// slowest plane — not once per member, which would serialize
			// planes the command reads concurrently.
			chipLat := map[int]float64{}
			for i, m := range sub {
				out[m.idx] = results[i].Data
				if results[i].Latency > chipLat[m.addr.Chip] {
					chipLat[m.addr.Chip] = results[i].Latency
				}
			}
			for _, m := range sub {
				if lat, ok := chipLat[m.addr.Chip]; ok {
					f.noteOp(m.addr.Chip, lat, 'r')
					delete(chipLat, m.addr.Chip)
				}
			}
		}
	}
	return out, latency, nil
}

// bufferedPage serves a page from an open superblock's write buffer.
func (f *FTL) bufferedPage(addr flash.BlockAddr, lwl int, typ pv.PageType, lpn int64) ([]byte, bool) {
	for _, st := range f.open {
		if st.sb != f.sbOf(addr) || lwl != st.nextWL {
			continue
		}
		for lane, m := range st.sb.members {
			if m == addr && st.lpns[lane][typ] == lpn {
				return st.data[lane][typ], true
			}
		}
	}
	return nil, false
}

// gcState is the resume cursor of one in-flight garbage collection. The
// victim has left the superblock table (so nested GC can never re-pick it)
// but its members stay in bySB until the erase, keeping valid-count
// bookkeeping and RAID reconstruction working for pages not yet relocated.
type gcState struct {
	victim       *superblock
	member       int  // next member block to scan
	page         int  // next page within that member
	pendingErase bool // all pages relocated; the multi-plane erase remains
	// running guards against reentrant resumption: a relocation write can
	// recurse into maybeGC through ensureFree, which must start a fresh
	// collection rather than resume the one already on the stack.
	running bool
}

// maybeGC reclaims space until the free pool can assemble at least
// GCThreshold superblocks — the hard watermark where the write path blocks.
// In-flight partial collections are finished before new victims are picked.
// It returns the number of relocated pages and the flash latency spent.
func (f *FTL) maybeGC() (moves int, latency float64, err error) {
	return f.collectUntil(f.cfg.GCThreshold)
}

// collectUntil runs blocking collections until the free pool reaches target
// superblocks. maybeGC refills to the hard watermark; the preemptive
// emergency path refills to a single row — just enough for the write to
// proceed — and leaves the rest to stepping, so one unlucky write is never
// charged a second, from-scratch collection on top of the in-flight one.
func (f *FTL) collectUntil(target int) (moves int, latency float64, err error) {
	for f.scheme.FreeCount() < target {
		st := f.resumableGC()
		if st == nil {
			victim := f.pickVictim()
			if victim == nil {
				f.noteStarved()
				if f.scheme.FreeCount() == 0 {
					return moves, latency, ErrDeviceFull
				}
				return moves, latency, nil
			}
			st = f.pushVictim(victim)
		}
		f.stats.GCStalls++
		if f.met != nil {
			f.met.gcStalls.Inc()
		}
		m, lat, _, err := f.gcAdvance(st, 0)
		moves += m
		latency += lat
		if err != nil {
			return moves, latency, err
		}
	}
	if f.gcObs != nil && (moves > 0 || latency > 0) {
		f.gcObs(GCEvent{Moves: moves, Latency: latency, Blocking: true})
	}
	return moves, latency, nil
}

// GCStepResult reports one preemptive GC step.
type GCStepResult struct {
	Moves   int     // valid pages relocated by this step
	Erased  bool    // the step performed a victim's deferred multi-plane erase
	Latency float64 // µs of flash work the step issued
	// Idle is true when the step had nothing to do: no collection in flight
	// and the free pool at or above the soft watermark (or no reclaimable
	// victim — see Stats.GCStarved).
	Idle bool
}

// GCStep runs one increment of garbage collection: it resumes the in-flight
// collection (or starts one if the free pool is below the soft watermark),
// relocates at most pageBudget valid pages or performs the deferred erase,
// and returns. pageBudget <= 0 runs the collection to completion. Device
// front ends call it in idle windows so host requests never wait behind a
// whole-superblock collection.
func (f *FTL) GCStep(pageBudget int) (GCStepResult, error) {
	st := f.resumableGC()
	if st == nil {
		if f.scheme.FreeCount() >= f.softGC {
			return GCStepResult{Idle: true}, nil
		}
		victim := f.pickVictim()
		if victim == nil {
			f.noteStarved()
			return GCStepResult{Idle: true}, nil
		}
		st = f.pushVictim(victim)
	}
	moves, lat, erased, err := f.gcAdvance(st, pageBudget)
	f.stats.GCSteps++
	if f.met != nil {
		f.met.gcSteps.Inc()
	}
	if f.gcObs != nil {
		f.gcObs(GCEvent{Moves: moves, Erased: erased, Latency: lat})
	}
	return GCStepResult{Moves: moves, Erased: erased, Latency: lat}, err
}

// GCNeeded reports whether a GCStep would do work: a collection is in
// flight, or the free pool sits below the soft watermark.
func (f *FTL) GCNeeded() bool {
	return len(f.gcq) > 0 || f.scheme.FreeCount() < f.softGC
}

// GCDebt returns the outstanding garbage-collection work in steps' units:
// valid pages still to relocate across in-flight victims, plus one slot per
// pending erase. Zero when no collection is in flight.
func (f *FTL) GCDebt() int {
	debt := 0
	for _, st := range f.gcq {
		debt += st.victim.valid + 1
	}
	return debt
}

// GCStepPages returns the configured per-step page budget (0 = blocking GC).
func (f *FTL) GCStepPages() int { return f.cfg.GCStepPages }

// GCPressure grades how urgently a stepping front end must run GC ahead of
// host work. 0: none — host keeps strict priority and debt steps wait for
// the queue to drain. 1: the pool is down to the row reserved for the GC
// stream and the outstanding collection no longer fits the open slow
// stream's slack, so the next host assembly would stall inline — trickle one
// step per request even while backlogged. 2: the pool is empty — burst until
// the in-flight collection frees a row. A short step now is always cheaper
// than the whole collection an unlucky host write would otherwise absorb.
func (f *FTL) GCPressure() int {
	if f.cfg.GCStepPages <= 0 {
		return 0
	}
	switch free := f.scheme.FreeCount(); {
	case free == 0:
		return 2
	case free == 1 && !f.gcFitsSlowSlack():
		return 1
	}
	return 0
}

// resumableGC returns the oldest in-flight collection not already executing
// on the call stack, or nil.
func (f *FTL) resumableGC() *gcState {
	for _, st := range f.gcq {
		if !st.running {
			return st
		}
	}
	return nil
}

// pushVictim starts a collection: the victim leaves the superblock table
// (so GC work triggered by its relocation writes can never pick it again)
// and gains a resume cursor on the GC queue.
func (f *FTL) pushVictim(victim *superblock) *gcState {
	f.stats.GCRuns++
	if f.met != nil {
		f.met.gcRuns.Inc()
	}
	delete(f.sbs, victim.id)
	var st *gcState
	if n := len(f.gcPool); n > 0 {
		st = f.gcPool[n-1]
		f.gcPool = f.gcPool[:n-1]
		*st = gcState{victim: victim}
	} else {
		st = &gcState{victim: victim}
	}
	f.gcq = append(f.gcq, st)
	return st
}

// popGC removes a finished collection from the GC queue and recycles the
// cursor. The deferred running-flag reset in gcAdvance still touches it,
// which is harmless: pushVictim reinitializes every field on reuse.
func (f *FTL) popGC(st *gcState) {
	for i, q := range f.gcq {
		if q == st {
			f.gcq = append(f.gcq[:i], f.gcq[i+1:]...)
			f.gcPool = append(f.gcPool, st)
			return
		}
	}
}

// noteStarved records that GC was needed but no sealed superblock could
// reclaim space — every candidate 100% valid. The device runs degraded
// until host overwrites or trims invalidate something.
func (f *FTL) noteStarved() {
	f.stats.GCStarved++
	if f.met != nil {
		f.met.gcStarved.Set(float64(f.stats.GCStarved))
	}
}

// victimScore is the GC selection cost of a superblock under the configured
// policy (lower is better), plus an optional wear penalty — heavily cycled
// superblocks are avoided so their blocks rest while less-worn blocks absorb
// the erases.
func (f *FTL) victimScore(sb *superblock) float64 {
	total := float64(len(sb.members) * f.geo.PagesPerBlock())
	var score float64
	switch f.cfg.Victim {
	case CostBenefit:
		u := float64(sb.valid) / total
		age := float64(f.stats.Flushes-sb.sealedAt) + 1
		// Classical cost-benefit: maximize (1−u)·age / 2u; negate for a
		// lower-is-better score.
		score = -(1 - u) * age / (2*u + 1e-9)
	case FIFO:
		score = float64(sb.sealedAt)
	default: // Greedy
		score = float64(sb.valid)
	}
	if f.cfg.WearLambda > 0 {
		var meanPE float64
		for _, m := range sb.members {
			pe, err := f.arr.PECycles(m)
			if err == nil {
				meanPE += float64(pe)
			}
		}
		meanPE /= float64(len(sb.members))
		score += f.cfg.WearLambda * meanPE
	}
	return score
}

// pickVictim selects the sealed superblock with the lowest victim score that
// can reclaim space (greedy, optionally wear-aware).
func (f *FTL) pickVictim() *superblock {
	var best *superblock
	bestScore := 0.0
	for _, sb := range f.sbs {
		if !sb.sealed {
			continue
		}
		if sb.valid >= len(sb.members)*f.geo.PagesPerBlock() {
			continue // full of valid data: collecting it frees nothing
		}
		score := f.victimScore(sb)
		if best == nil || score < bestScore ||
			(score == bestScore && sb.id < best.id) {
			best = sb
			bestScore = score
		}
	}
	return best
}

// ensureFree guarantees the free pool can assemble at least one superblock,
// collecting garbage if necessary. Blocking mode refills to the hard
// watermark; preemptive mode frees the single row this assembly needs.
//
// Preemptive mode additionally reserves the last free row for the GC
// stream: relocation writes land in the slow stream, so if a host assembly
// drained the pool and the slow stream then sealed mid-collection, the
// collection could never write again and reclamation would deadlock against
// the host. The host may still take the last row when the outstanding
// collection provably fits in the open slow stream's remaining slots — the
// stream then cannot seal before the victim's erase refills the pool.
func (f *FTL) ensureFree(speed core.Speed) error {
	free := f.scheme.FreeCount()
	if free > 0 {
		if f.cfg.GCStepPages > 0 && free == 1 && speed != core.Slow && !f.gcFitsSlowSlack() {
			if _, _, err := f.collectUntil(2); err != nil {
				return err
			}
		}
		return nil
	}
	target := f.cfg.GCThreshold
	if f.cfg.GCStepPages > 0 {
		target = 1
	}
	if _, _, err := f.collectUntil(target); err != nil {
		return err
	}
	if f.scheme.FreeCount() == 0 {
		return ErrDeviceFull
	}
	return nil
}

// gcFitsSlowSlack reports whether the relocation writes still needed to
// finish the next collection (in flight, or the victim that would be picked)
// fit in the open slow stream's remaining slots. When they do, garbage
// collection can run to its erase without assembling a fresh superblock, so
// the free pool may safely drain to zero in the meantime. With nothing to
// reclaim it reports true — reserving a row for GC that cannot run is waste.
func (f *FTL) gcFitsSlowSlack() bool {
	var need int
	if st := f.resumableGC(); st != nil {
		need = st.victim.valid
	} else if v := f.pickVictim(); v != nil {
		need = v.valid
	} else {
		return true
	}
	st := f.open[core.Slow]
	if st == nil {
		return false // the slow stream itself needs the row
	}
	slack := (f.geo.LWLsPerBlock()-st.nextWL)*st.dataSlots() - st.fill
	return need <= slack
}

// gcAdvance runs one increment of the collection st: it relocates up to
// budget valid pages (budget <= 0 = unlimited) into the slow (GC) stream,
// and once the scan is done, erases the victim's members with one
// multi-plane erase and returns the blocks to the free pool. With a finite
// budget the erase is its own step: a call that relocated pages stops
// before it. On error the cursor keeps its position — st stays on the GC
// queue and a later call resumes at the failing page, so a mid-collection
// failure never orphans the victim.
func (f *FTL) gcAdvance(st *gcState, budget int) (moves int, latency float64, erased bool, err error) {
	// Everything from here to the erase is GC work: journal entries carry
	// the attribution so device tracers can separate a GC pause from host
	// work on the same chip.
	st.running = true
	f.gcDepth++
	defer func() {
		st.running = false
		f.gcDepth--
		f.stats.GCLatency += latency
	}()
	victim := st.victim
	for !st.pendingErase {
		if st.member >= len(victim.members) {
			st.pendingErase = true
			if budget > 0 && moves > 0 {
				// The erase is its own step.
				return moves, latency, false, nil
			}
			break
		}
		if st.page >= f.geo.PagesPerBlock() {
			st.member++
			st.page = 0
			continue
		}
		m := victim.members[st.member]
		ppn := f.ppn(m, 0, 0) + int64(st.page)
		lpn := f.p2l[ppn]
		if lpn < 0 {
			st.page++
			continue
		}
		if budget > 0 && moves >= budget {
			return moves, latency, false, nil
		}
		addr, lwl, typ := f.ppnLocate(ppn)
		data, rlat, rerr := f.readPage(addr, lwl, typ)
		if rerr != nil {
			return moves, latency, false, fmt.Errorf("ftl: gc read: %w", rerr)
		}
		latency += rlat
		wr, werr := f.writeInternal(lpn, data, core.GCWrite, HintNone)
		if werr != nil {
			return moves, latency, false, fmt.Errorf("ftl: gc write: %w", werr)
		}
		latency += wr.Latency
		f.stats.GCWrites++
		if f.met != nil {
			f.met.gcWrites.Inc()
		}
		moves++
		st.page++
	}
	res, eerr := f.arr.EraseMulti(victim.members)
	if eerr != nil {
		return moves, latency, false, fmt.Errorf("ftl: gc erase: %w", eerr)
	}
	latency += res.Latency
	f.stats.Erases++
	if f.met != nil {
		f.met.erases.Inc()
	}
	f.stats.EraseLatency += res.Latency
	f.stats.ExtraErs += res.Extra
	f.stats.ExtraEWMA += extraEWMAAlpha * (res.Extra - f.stats.ExtraEWMA)
	f.recordAttr('e', victim.speed == core.Fast, victim.members, res.PerMember)
	for i, m := range victim.members {
		f.noteOp(m.Chip, res.PerMember[i], 'e')
	}
	for i, m := range victim.members {
		f.bySB[f.blockIdx(m)] = nil
		failed := false
		for _, fi := range res.Failed {
			if fi == i {
				failed = true
				break
			}
		}
		if failed {
			// Endurance exhausted: retire the block instead of freeing it.
			f.stats.BadBlocks++
			if err := f.scheme.Retire(m); err != nil {
				return moves, latency, false, err
			}
			continue
		}
		if err := f.scheme.AddFree(m); err != nil {
			return moves, latency, false, err
		}
	}
	f.popGC(st)
	// The victim's record and member slice return to the assembly pool.
	victim.members = victim.members[:0]
	f.sbPool = append(f.sbPool, victim)
	return moves, latency, true, nil
}

// Patrol scans up to maxPages mapped pages starting at the given logical
// page, reads each, and refreshes (relocates through the GC stream) any page
// whose raw error count exceeds the refresh threshold — the retention-loss
// management that keeps long-lived cold data readable. It returns the next
// logical page to resume from and the flash latency spent.
func (f *FTL) Patrol(startLPN int64, maxPages int, refreshAtBits int) (next int64, latency float64, err error) {
	if startLPN < 0 || startLPN >= f.logLen {
		startLPN = 0
	}
	lpn := startLPN
	scanned := 0
	for scanned < maxPages {
		if f.l2p[lpn] >= 0 {
			addr, lwl, typ := f.ppnLocate(f.l2p[lpn])
			if _, buffered := f.bufferedPage(addr, lwl, typ, lpn); !buffered {
				r, rerr := f.arr.Read(flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: typ})
				f.stats.PatrolReads++
				scanned++
				latency += r.Latency
				data := r.Data
				refresh := rerr == nil && r.ErrBits >= refreshAtBits
				if rerr != nil {
					// Uncorrectable during patrol: reconstruct if possible
					// and refresh unconditionally.
					var rlat float64
					data, rlat, rerr = f.readPage(addr, lwl, typ)
					latency += rlat
					if rerr != nil {
						return lpn, latency, fmt.Errorf("ftl: patrol read lpn %d: %w", lpn, rerr)
					}
					refresh = true
				}
				if refresh {
					f.gcDepth++
					wr, werr := f.writeInternal(lpn, data, core.GCWrite, HintNone)
					f.gcDepth--
					if werr != nil {
						return lpn, latency, fmt.Errorf("ftl: patrol refresh lpn %d: %w", lpn, werr)
					}
					latency += wr.Latency
					f.stats.Refreshes++
					f.stats.GCWrites++
					if f.met != nil {
						f.met.gcWrites.Inc()
					}
				}
			}
		}
		lpn++
		if lpn == f.logLen {
			lpn = 0
		}
		if lpn == startLPN {
			break
		}
	}
	return lpn, latency, nil
}

// DrainGC runs every in-flight garbage collection to completion and returns
// the flash latency spent. Checkpointing calls it so a snapshot never holds
// a victim that is in neither the superblock table nor the free pool;
// devices call it on shutdown so pending reclamation is not lost.
func (f *FTL) DrainGC() (float64, error) {
	var total float64
	for len(f.gcq) > 0 {
		st := f.resumableGC()
		if st == nil {
			return total, fmt.Errorf("ftl: drain gc: collection already executing")
		}
		_, lat, _, err := f.gcAdvance(st, 0)
		total += lat
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Flush forces the pending super word-lines of both streams to flash.
// Partially filled word-lines are padded with empty pages.
func (f *FTL) Flush() (float64, error) {
	total := 0.0
	for _, speed := range []core.Speed{core.Fast, core.Slow} {
		st := f.open[speed]
		if st == nil || st.fill == 0 {
			continue
		}
		lat, _, err := f.flush(speed)
		if err != nil {
			return total, err
		}
		total += lat
	}
	return total, nil
}

// CheckInvariants verifies the FTL's internal consistency: mapping tables
// are mutually inverse and per-superblock valid counters agree with the
// mapping. Tests call it after workloads.
func (f *FTL) CheckInvariants() error {
	counts := make(map[int]int)
	for lpn, ppn := range f.l2p {
		if ppn < 0 {
			continue
		}
		if f.p2l[ppn] != int64(lpn) {
			return fmt.Errorf("ftl: l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, f.p2l[ppn])
		}
		addr, _, _ := f.ppnLocate(ppn)
		sb := f.sbOf(addr)
		if sb == nil {
			return fmt.Errorf("ftl: mapped page %d in block %v outside any superblock", ppn, addr)
		}
		counts[sb.id]++
	}
	for ppn, lpn := range f.p2l {
		if lpn >= 0 && f.l2p[lpn] != int64(ppn) {
			return fmt.Errorf("ftl: p2l[%d]=%d but l2p[%d]=%d", ppn, lpn, lpn, f.l2p[lpn])
		}
	}
	for id, sb := range f.sbs {
		if sb.valid != counts[id] {
			return fmt.Errorf("ftl: superblock %d valid=%d but mapping says %d", id, sb.valid, counts[id])
		}
	}
	return nil
}
