// Package flash simulates a 3D TLC NAND flash array: chips, planes, blocks,
// word-lines and pages, with erase/program/read operations whose latencies
// come from the process-variation model in internal/pv, NAND state-machine
// rules (erase-before-program, sequential word-line programming), a bit-error
// + ECC retry model, and multi-plane commands whose completion time is the
// maximum over their members — the mechanism that creates the paper's "extra
// latency".
package flash

import (
	"errors"
	"fmt"
	"math"

	"superfast/internal/prng"
	"superfast/internal/pv"
)

// PagesPerLWL is the number of pages per logical word-line (TLC).
const PagesPerLWL = int(pv.NumPageTypes)

// Errors returned by array operations.
var (
	ErrBadAddress     = errors.New("flash: address out of range")
	ErrNotErased      = errors.New("flash: block not erased")
	ErrOutOfOrder     = errors.New("flash: word-lines must be programmed in order")
	ErrNotProgrammed  = errors.New("flash: page not programmed")
	ErrUncorrectable  = errors.New("flash: uncorrectable ECC error")
	ErrLaneConflict   = errors.New("flash: multi-plane command targets share a lane")
	ErrEmptyMultiOp   = errors.New("flash: multi-plane command needs at least one target")
	ErrAlreadyWritten = errors.New("flash: word-line already programmed")
	ErrBadBlock       = errors.New("flash: block is bad (endurance exhausted)")
)

// BlockAddr identifies one physical block.
type BlockAddr struct {
	Chip  int
	Plane int
	Block int
}

func (a BlockAddr) String() string {
	return fmt.Sprintf("c%d/p%d/b%d", a.Chip, a.Plane, a.Block)
}

// Lane returns the plane-lane index of the block inside geometry g.
func (a BlockAddr) Lane(g Geometry) int { return a.Chip*g.PlanesPerChip + a.Plane }

// PageAddr identifies one TLC page.
type PageAddr struct {
	BlockAddr
	LWL  int // logical word-line index
	Type pv.PageType
}

// PageIndex returns the flat page index of the address within its block.
func (a PageAddr) PageIndex() int { return a.LWL*PagesPerLWL + int(a.Type) }

// ECCConfig models the on-controller error correction engine.
type ECCConfig struct {
	CorrectableBits int     // bits the hard decode corrects per page
	RetryBits       int     // bits the retry (soft) decode corrects per page
	RetryPenalty    float64 // extra read latency per retry round, µs
	MaxRetries      int
}

// DefaultECC returns an LDPC-like configuration: strong hard decode, a few
// increasingly expensive retry rounds.
func DefaultECC() ECCConfig {
	return ECCConfig{CorrectableBits: 72, RetryBits: 120, RetryPenalty: 55, MaxRetries: 3}
}

// Counters aggregates operation statistics for an array.
type Counters struct {
	Erases      uint64
	EraseFails  uint64 // erases rejected on bad blocks
	Programs    uint64 // word-line programs
	Reads       uint64
	ReadRetries uint64
	ReadFails   uint64
	EraseTime   float64 // µs
	ProgramTime float64
	ReadTime    float64
}

// bitset is a fixed-capacity bit vector over page indices. The nil bitset
// reads as all-false, so blocks that were never programmed need no storage.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) get(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<uint(i&63)) != 0
}

func (s bitset) set(i int) { s[i>>6] |= 1 << uint(i&63) }

func (s bitset) clearAll() {
	for i := range s {
		s[i] = 0
	}
}

type block struct {
	bad        bool
	corrupted  bitset   // page index → forced uncorrectable (fault injection); nil until injected
	oob        [][]byte // page index → spare-area bytes; nil until first OOB write
	peCycles   int
	nextLWL    int       // next word-line to program; LWLsPerBlock when full
	retention  float64   // retention units since last program completion
	data       [][]byte  // page index → payload; nil until first program
	programmed bitset    // page index → written; allocated with data
	lwlLatency []float64 // observed program latency per LWL (last program pass)
}

// Array is a simulated NAND flash array. It is not safe for concurrent use;
// callers (the SSD layer) serialize access per their channel model.
type Array struct {
	geo      Geometry
	model    *pv.Model
	kern     *pv.Kernel // cached-latency kernel over this array's geometry
	seed     uint64     // model seed, cached off the hot read path
	ecc      ECCConfig
	borrow   bool                       // store program payloads without copying (SetBorrowPayloads)
	recycler func(buf []byte, oob bool) // erase-time buffer hand-back (SetRecycler)

	blocks   []block // lane-major: lane*BlocksPerPlane + block
	opNonce  uint64  // distinguishes repeated measurements (temporal jitter)
	counters Counters

	// Chip-level fault injection (FailNextReads / SetChipReadFailure).
	// Nil until the first injection so the hot read path pays one nil check.
	failReads []int  // chip → remaining forced-uncorrectable reads
	chipDown  []bool // chip → all reads fail uncorrectable until revived
}

// NewArray builds an array over the given geometry and variation model.
func NewArray(g Geometry, m *pv.Model, ecc ECCConfig) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	mp := m.Params()
	if mp.Layers != g.Layers || mp.Strings != g.Strings {
		return nil, fmt.Errorf("flash: pv model geometry (%d layers × %d strings) disagrees with array (%d × %d)",
			mp.Layers, mp.Strings, g.Layers, g.Strings)
	}
	return &Array{
		geo:    g,
		model:  m,
		kern:   m.Kernel(g.Chips, g.PlanesPerChip, g.BlocksPerPlane),
		seed:   mp.Seed,
		ecc:    ecc,
		blocks: make([]block, g.TotalBlocks()),
	}, nil
}

// MustNewArray is NewArray that panics on error, for tests and examples.
func MustNewArray(g Geometry, m *pv.Model, ecc ECCConfig) *Array {
	a, err := NewArray(g, m, ecc)
	if err != nil {
		panic(err)
	}
	return a
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Model returns the underlying process-variation model.
func (a *Array) Model() *pv.Model { return a.model }

// Kernel returns the cached-latency kernel the array evaluates its model
// through. Consumers that query the model at array coordinates (the chamber
// testbed, the experiment sweeps) should go through it so they share the
// array's precomputed tables.
func (a *Array) Kernel() *pv.Kernel { return a.kern }

// SetBorrowPayloads selects whether program operations copy page and OOB
// payloads into the array (the default) or store the caller's slices
// directly. Borrowing is safe only when the caller hands over ownership:
// every buffer passed to Program/ProgramOOB must not be mutated afterwards.
// The FTL qualifies (it builds fresh buffers per flush and drops them), and
// enables this for its array; measurement harnesses that reuse payload
// scratch buffers must leave it off.
func (a *Array) SetBorrowPayloads(on bool) { a.borrow = on }

// SetRecycler installs a callback that Erase invokes for every payload and
// OOB buffer the erased block still holds, just before the block forgets
// them. With borrowing on, the buffers handed back are exactly the slices
// the owner lent to Program/ProgramOOB, so an FTL can pool and reuse them
// instead of allocating fresh ones every P/E cycle. The callback runs on
// the erase path and must not call back into the array. Pass nil to remove.
func (a *Array) SetRecycler(fn func(buf []byte, oob bool)) { a.recycler = fn }

// Counters returns a copy of the operation counters.
func (a *Array) Counters() Counters { return a.counters }

func (a *Array) blockIndex(addr BlockAddr) (int, error) {
	if addr.Chip < 0 || addr.Chip >= a.geo.Chips ||
		addr.Plane < 0 || addr.Plane >= a.geo.PlanesPerChip ||
		addr.Block < 0 || addr.Block >= a.geo.BlocksPerPlane {
		return 0, fmt.Errorf("%w: %v", ErrBadAddress, addr)
	}
	return addr.Lane(a.geo)*a.geo.BlocksPerPlane + addr.Block, nil
}

func (a *Array) nonce() uint64 {
	a.opNonce++
	return a.opNonce
}

// PECycles returns the program/erase cycle count of a block.
func (a *Array) PECycles(addr BlockAddr) (int, error) {
	i, err := a.blockIndex(addr)
	if err != nil {
		return 0, err
	}
	return a.blocks[i].peCycles, nil
}

// SetPECycles force-sets the wear state of a block. The chamber harness uses
// it to fast-forward cycling without replaying every intermediate erase.
func (a *Array) SetPECycles(addr BlockAddr, pe int) error {
	i, err := a.blockIndex(addr)
	if err != nil {
		return err
	}
	if pe < 0 {
		return fmt.Errorf("flash: negative P/E count %d", pe)
	}
	a.blocks[i].peCycles = pe
	return nil
}

// AddRetention ages every block by the given number of retention units
// (one high-temperature data-retention bake step = 1 unit).
func (a *Array) AddRetention(units float64) {
	if units < 0 {
		return
	}
	for i := range a.blocks {
		a.blocks[i].retention += units
	}
}

// NextLWL returns the next word-line to be programmed in the block
// (LWLsPerBlock when the block is full), or -1 for an invalid address.
func (a *Array) NextLWL(addr BlockAddr) int {
	i, err := a.blockIndex(addr)
	if err != nil {
		return -1
	}
	return a.blocks[i].nextLWL
}

// IsFull reports whether every word-line of the block has been programmed.
func (a *Array) IsFull(addr BlockAddr) bool {
	return a.NextLWL(addr) == a.geo.LWLsPerBlock()
}

// IsBad reports whether the block has been retired as bad.
func (a *Array) IsBad(addr BlockAddr) bool {
	i, err := a.blockIndex(addr)
	if err != nil {
		return false
	}
	return a.blocks[i].bad
}

// MarkBad retires a block manually (e.g. from a factory bad-block list).
func (a *Array) MarkBad(addr BlockAddr) error {
	i, err := a.blockIndex(addr)
	if err != nil {
		return err
	}
	a.blocks[i].bad = true
	return nil
}

// Erase erases one block and returns the observed erase latency in µs.
// When the block's endurance is exhausted the erase fails: the block is
// marked bad and ErrBadBlock is returned together with the time the failed
// erase still consumed.
func (a *Array) Erase(addr BlockAddr) (float64, error) {
	i, err := a.blockIndex(addr)
	if err != nil {
		return 0, err
	}
	b := &a.blocks[i]
	lat := a.kern.EraseLatency(addr.Chip, addr.Plane, addr.Block, b.peCycles, a.nonce())
	if b.bad || b.peCycles >= a.kern.Endurance(addr.Chip, addr.Plane, addr.Block) {
		b.bad = true
		a.counters.EraseFails++
		a.counters.EraseTime += lat
		return lat, fmt.Errorf("%w: %v", ErrBadBlock, addr)
	}
	b.peCycles++
	b.nextLWL = 0
	b.retention = 0
	// Clear page state in place rather than dropping it: a block cycles
	// through thousands of P/E cycles, and reallocating its page tables on
	// the first program of every cycle dominated the steady-state write path.
	if a.recycler != nil {
		for j := range b.data {
			if b.data[j] != nil {
				a.recycler(b.data[j], false)
			}
		}
		for j := range b.oob {
			if b.oob[j] != nil {
				a.recycler(b.oob[j], true)
			}
		}
	}
	for j := range b.data {
		b.data[j] = nil
	}
	for j := range b.oob {
		b.oob[j] = nil
	}
	b.programmed.clearAll()
	b.corrupted.clearAll()
	for j := range b.lwlLatency {
		b.lwlLatency[j] = 0
	}
	a.counters.Erases++
	a.counters.EraseTime += lat
	return lat, nil
}

// Program writes one logical word-line (all PagesPerLWL pages at once, as a
// one-shot TLC program) and returns the observed program latency in µs.
// pages may be nil or shorter than PagesPerLWL; missing entries are stored
// as empty payloads. Word-lines must be programmed in order after an erase.
func (a *Array) Program(addr BlockAddr, lwl int, pages [][]byte) (float64, error) {
	return a.ProgramOOB(addr, lwl, pages, nil)
}

// ProgramOOB is Program with per-page spare-area bytes (out-of-band data):
// oob[t] is stored alongside page t of the word-line. FTLs keep their
// logical tags there so the mapping can be rebuilt by scanning flash.
func (a *Array) ProgramOOB(addr BlockAddr, lwl int, pages [][]byte, oob [][]byte) (float64, error) {
	i, err := a.blockIndex(addr)
	if err != nil {
		return 0, err
	}
	if lwl < 0 || lwl >= a.geo.LWLsPerBlock() {
		return 0, fmt.Errorf("%w: lwl %d", ErrBadAddress, lwl)
	}
	if len(pages) > PagesPerLWL {
		return 0, fmt.Errorf("flash: %d pages for one word-line, max %d", len(pages), PagesPerLWL)
	}
	if len(oob) > PagesPerLWL {
		return 0, fmt.Errorf("flash: %d oob entries for one word-line, max %d", len(oob), PagesPerLWL)
	}
	for t, o := range oob {
		if len(o) > a.geo.SpareSize {
			return 0, fmt.Errorf("flash: oob %d is %d bytes, spare area holds %d", t, len(o), a.geo.SpareSize)
		}
	}
	b := &a.blocks[i]
	if b.bad {
		return 0, fmt.Errorf("%w: %v", ErrBadBlock, addr)
	}
	if lwl < b.nextLWL {
		return 0, fmt.Errorf("%w: lwl %d in %v", ErrAlreadyWritten, lwl, addr)
	}
	if lwl > b.nextLWL {
		return 0, fmt.Errorf("%w: want lwl %d, got %d in %v", ErrOutOfOrder, b.nextLWL, lwl, addr)
	}
	layer, str := a.geo.LayerString(lwl)
	lat := a.kern.ProgramLatency(pv.Coord{
		Chip: addr.Chip, Plane: addr.Plane, Block: addr.Block, Layer: layer, String: str,
	}, b.peCycles, a.nonce())
	if lwl == 0 {
		// Retention damage applies to stored charge: a block's data age
		// starts when the block begins to be programmed.
		b.retention = 0
	}
	if b.data == nil {
		// First program of this block's lifetime: allocate the page tables.
		// Erase clears them in place, so the allocation happens once, not
		// once per P/E cycle.
		np := a.geo.LWLsPerBlock() * PagesPerLWL
		b.data = make([][]byte, np)
		b.programmed = newBitset(np)
		b.lwlLatency = make([]float64, a.geo.LWLsPerBlock())
	}
	for t := 0; t < PagesPerLWL; t++ {
		idx := lwl*PagesPerLWL + t
		b.programmed.set(idx)
		if t < len(pages) && pages[t] != nil {
			if a.borrow {
				b.data[idx] = pages[t]
			} else {
				cp := make([]byte, len(pages[t]))
				copy(cp, pages[t])
				b.data[idx] = cp
			}
		}
		if t < len(oob) && oob[t] != nil {
			if b.oob == nil {
				b.oob = make([][]byte, a.geo.LWLsPerBlock()*PagesPerLWL)
			}
			if a.borrow {
				b.oob[idx] = oob[t]
			} else {
				b.oob[idx] = append([]byte(nil), oob[t]...)
			}
		}
	}
	b.lwlLatency[lwl] = lat
	b.nextLWL = lwl + 1
	a.counters.Programs++
	a.counters.ProgramTime += lat
	return lat, nil
}

// ReadResult describes one page read.
type ReadResult struct {
	Data    []byte
	Latency float64 // µs, including ECC retry penalties
	Retries int
	ErrBits int // raw bit errors before correction
}

// Read senses one page, applies the ECC model, and returns the payload.
// It returns ErrUncorrectable when the error count exceeds the retry decode.
func (a *Array) Read(addr PageAddr) (ReadResult, error) {
	i, err := a.blockIndex(addr.BlockAddr)
	if err != nil {
		return ReadResult{}, err
	}
	if addr.LWL < 0 || addr.LWL >= a.geo.LWLsPerBlock() ||
		addr.Type < 0 || addr.Type >= pv.NumPageTypes {
		return ReadResult{}, fmt.Errorf("%w: %+v", ErrBadAddress, addr)
	}
	b := &a.blocks[i]
	idx := addr.PageIndex()
	if !b.programmed.get(idx) {
		return ReadResult{}, fmt.Errorf("%w: %v lwl=%d %v", ErrNotProgrammed, addr.BlockAddr, addr.LWL, addr.Type)
	}
	layer, str := a.geo.LayerString(addr.LWL)
	coord := pv.Coord{Chip: addr.Chip, Plane: addr.Plane, Block: addr.Block, Layer: layer, String: str}
	n := a.nonce()
	lat := a.kern.ReadLatency(coord, addr.Type, n)
	errBits := a.sampleErrBits(coord, b, n)
	if b.corrupted.get(idx) {
		errBits = a.ecc.RetryBits + 1
	}
	if a.chipDown != nil && a.chipDown[addr.Chip] {
		errBits = a.ecc.RetryBits + 1
	} else if a.failReads != nil && a.failReads[addr.Chip] > 0 {
		a.failReads[addr.Chip]--
		errBits = a.ecc.RetryBits + 1
	}
	retries := 0
	corrected := errBits <= a.ecc.CorrectableBits
	for !corrected && retries < a.ecc.MaxRetries {
		retries++
		lat += a.ecc.RetryPenalty
		corrected = errBits <= a.ecc.RetryBits
	}
	a.counters.Reads++
	a.counters.ReadRetries += uint64(retries)
	a.counters.ReadTime += lat
	if !corrected {
		a.counters.ReadFails++
		return ReadResult{Latency: lat, Retries: retries, ErrBits: errBits}, ErrUncorrectable
	}
	return ReadResult{Data: b.data[idx], Latency: lat, Retries: retries, ErrBits: errBits}, nil
}

// sampleErrBits draws a raw error-bit count for one page read: a normal
// approximation of Binomial(pageBits, RBER), deterministic per nonce.
func (a *Array) sampleErrBits(c pv.Coord, b *block, nonce uint64) int {
	rber := a.kern.RBER(c, b.peCycles, b.retention)
	bits := float64((a.geo.PageSize + a.geo.SpareSize) * 8)
	mean := rber * bits
	sd := math.Sqrt(mean * (1 - rber))
	h := prng.Hash(a.seed, 101, c.Chip, c.Plane, c.Block, c.Layer, c.String)
	v := mean + sd*prng.NormalFromHash(prng.SplitMix64(h^nonce))
	if v < 0 {
		return 0
	}
	return int(v)
}

// MultiOpResult reports a multi-plane command: the per-member latencies, the
// completion latency (the maximum), the extra latency (max − min), which is
// the quantity the paper minimizes, and the indices of members whose block
// failed (bad block on erase).
type MultiOpResult struct {
	PerMember []float64
	Latency   float64
	Extra     float64
	Failed    []int
}

func summarize(lats []float64, failed []int) MultiOpResult {
	max, min := lats[0], lats[0]
	for _, v := range lats[1:] {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	return MultiOpResult{PerMember: lats, Latency: max, Extra: max - min, Failed: failed}
}

func (a *Array) checkDistinctLanes(addrs []BlockAddr) error {
	if len(addrs) == 0 {
		return ErrEmptyMultiOp
	}
	// Members are at most one per lane (a handful), so a quadratic scan
	// beats allocating a set on what is the FTL's per-flush path.
	for i, ad := range addrs {
		if _, err := a.blockIndex(ad); err != nil {
			return err
		}
		l := ad.Lane(a.geo)
		for j := 0; j < i; j++ {
			if addrs[j].Lane(a.geo) == l {
				return fmt.Errorf("%w: lane %d", ErrLaneConflict, l)
			}
		}
	}
	return nil
}

// EraseMulti erases the given blocks (one per lane) as a multi-plane erase.
// The command completes when the slowest member completes. Members whose
// erase fails (bad block) are reported in the result's Failed list rather
// than aborting the command, matching the per-plane status a real MP erase
// returns; any other error aborts.
func (a *Array) EraseMulti(addrs []BlockAddr) (MultiOpResult, error) {
	if err := a.checkDistinctLanes(addrs); err != nil {
		return MultiOpResult{}, err
	}
	lats := make([]float64, len(addrs))
	var failed []int
	for i, ad := range addrs {
		lat, err := a.Erase(ad)
		switch {
		case errors.Is(err, ErrBadBlock):
			failed = append(failed, i)
		case err != nil:
			return MultiOpResult{}, err
		}
		lats[i] = lat
	}
	return summarize(lats, failed), nil
}

// ProgramMulti programs word-line lwl of each block (one per lane) as a
// multi-plane word-line program. pages[i] holds the payloads for member i.
// The command completes when the slowest member completes.
func (a *Array) ProgramMulti(addrs []BlockAddr, lwl int, pages [][][]byte) (MultiOpResult, error) {
	if err := a.checkDistinctLanes(addrs); err != nil {
		return MultiOpResult{}, err
	}
	if pages != nil && len(pages) != len(addrs) {
		return MultiOpResult{}, fmt.Errorf("flash: %d page sets for %d members", len(pages), len(addrs))
	}
	lats := make([]float64, len(addrs))
	for i, ad := range addrs {
		var p [][]byte
		if pages != nil {
			p = pages[i]
		}
		lat, err := a.Program(ad, lwl, p)
		if err != nil {
			return MultiOpResult{}, err
		}
		lats[i] = lat
	}
	return summarize(lats, nil), nil
}

// ReadMulti reads one page from each of several lanes in parallel (a
// superpage read): the call completes when the slowest member completes.
// All members must be on distinct lanes and programmed; an ECC failure on
// any member fails the whole read.
func (a *Array) ReadMulti(addrs []PageAddr) ([]ReadResult, MultiOpResult, error) {
	if len(addrs) == 0 {
		return nil, MultiOpResult{}, ErrEmptyMultiOp
	}
	blocks := make([]BlockAddr, len(addrs))
	for i, ad := range addrs {
		blocks[i] = ad.BlockAddr
	}
	if err := a.checkDistinctLanes(blocks); err != nil {
		return nil, MultiOpResult{}, err
	}
	results := make([]ReadResult, len(addrs))
	lats := make([]float64, len(addrs))
	for i, ad := range addrs {
		r, err := a.Read(ad)
		if err != nil {
			return nil, MultiOpResult{}, err
		}
		results[i] = r
		lats[i] = r.Latency
	}
	return results, summarize(lats, nil), nil
}

// ReadOOB returns the spare-area bytes of a programmed page (nil if none
// were written). Spare-area reads carry their own protection and do not go
// through the data-path ECC model.
func (a *Array) ReadOOB(addr PageAddr) ([]byte, error) {
	i, err := a.blockIndex(addr.BlockAddr)
	if err != nil {
		return nil, err
	}
	if addr.LWL < 0 || addr.LWL >= a.geo.LWLsPerBlock() || addr.Type < 0 || addr.Type >= pv.NumPageTypes {
		return nil, fmt.Errorf("%w: %+v", ErrBadAddress, addr)
	}
	b := &a.blocks[i]
	idx := addr.PageIndex()
	if !b.programmed.get(idx) {
		return nil, fmt.Errorf("%w: %v lwl=%d %v", ErrNotProgrammed, addr.BlockAddr, addr.LWL, addr.Type)
	}
	if b.oob == nil {
		return nil, nil
	}
	return b.oob[idx], nil
}

// InjectCorruption forces every future read of the page to fail ECC — the
// fault-injection hook used to exercise reconstruction paths. The corruption
// clears when the block is erased.
func (a *Array) InjectCorruption(addr PageAddr) error {
	i, err := a.blockIndex(addr.BlockAddr)
	if err != nil {
		return err
	}
	if addr.LWL < 0 || addr.LWL >= a.geo.LWLsPerBlock() || addr.Type < 0 || addr.Type >= pv.NumPageTypes {
		return fmt.Errorf("%w: %+v", ErrBadAddress, addr)
	}
	b := &a.blocks[i]
	if b.corrupted == nil {
		b.corrupted = newBitset(a.geo.LWLsPerBlock() * PagesPerLWL)
	}
	b.corrupted.set(addr.PageIndex())
	return nil
}

// FailNextReads arms a transient read-error burst on one chip: the next n
// page reads targeting the chip return ErrUncorrectable (after the full
// retry ladder), regardless of the page's real error count. The countdown
// decrements in array operation order, so campaigns replaying the same
// request sequence hit the same reads. Calling with n <= 0 disarms the chip.
func (a *Array) FailNextReads(chip, n int) error {
	if chip < 0 || chip >= a.geo.Chips {
		return fmt.Errorf("%w: chip %d", ErrBadAddress, chip)
	}
	if a.failReads == nil {
		a.failReads = make([]int, a.geo.Chips)
	}
	if n < 0 {
		n = 0
	}
	a.failReads[chip] = n
	return nil
}

// PendingReadFailures returns how many armed read failures remain on a chip.
func (a *Array) PendingReadFailures(chip int) int {
	if a.failReads == nil || chip < 0 || chip >= len(a.failReads) {
		return 0
	}
	return a.failReads[chip]
}

// SetChipReadFailure drops (or revives) a whole chip's read path: while set,
// every page read on the chip returns ErrUncorrectable. Programs and erases
// still succeed — the stored data is intact, only sensing fails — so RAID
// reconstruction and refresh can relocate the data while the chip is down.
func (a *Array) SetChipReadFailure(chip int, down bool) error {
	if chip < 0 || chip >= a.geo.Chips {
		return fmt.Errorf("%w: chip %d", ErrBadAddress, chip)
	}
	if a.chipDown == nil {
		if !down {
			return nil
		}
		a.chipDown = make([]bool, a.geo.Chips)
	}
	a.chipDown[chip] = down
	return nil
}

// ChipReadFailure reports whether the chip's read path is currently dropped.
func (a *Array) ChipReadFailure(chip int) bool {
	return a.chipDown != nil && chip >= 0 && chip < len(a.chipDown) && a.chipDown[chip]
}

// LWLLatencies returns the program latencies observed for each word-line of
// a fully or partially programmed block (zero for unprogrammed lines). This
// is the raw material of the gathering stage.
func (a *Array) LWLLatencies(addr BlockAddr) ([]float64, error) {
	i, err := a.blockIndex(addr)
	if err != nil {
		return nil, err
	}
	b := &a.blocks[i]
	out := make([]float64, a.geo.LWLsPerBlock())
	copy(out, b.lwlLatency)
	return out, nil
}
