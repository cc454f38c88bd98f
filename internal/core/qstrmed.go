// Package core implements QSTR-MED, the paper's contribution (§V): a
// practical process-variation check scheme that organizes superblocks with
// minimal extra latency at runtime.
//
// The scheme has three components:
//
//   - Gathering (§V-B): while a block's word-lines are programmed in the
//     normal write path, accumulate the block program latency (LTN SUM) and,
//     per physical word-line layer, mark the fastest half of the strings
//     with bit 0 to build the block's eigen sequence. Only open blocks carry
//     a latency table; completed blocks keep just (sum, eigen).
//
//   - Assembling (§V-C): per lane, a sorted program-latency list. A fast
//     superblock takes the globally fastest head block as the reference and,
//     from every other lane, the head-K candidates; one XOR + popcount
//     similarity check per candidate picks the most similar block. A slow
//     superblock does the same from the tail. With four lanes and K = 4
//     that is 12 pair checks instead of STR-MED's 1,536 — the 99.22%
//     computing-overhead reduction of §VI-B2.
//
//   - Allocating (§V-D): function-based placement routes host writes to
//     fast superblocks and garbage-collection writes to slow superblocks.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"superfast/internal/assembly"
	"superfast/internal/flash"
	"superfast/internal/profile"
)

// Speed classifies a superblock request.
type Speed int

// Superblock speed classes.
const (
	Fast Speed = iota
	Slow
)

func (s Speed) String() string {
	if s == Fast {
		return "FAST"
	}
	return "SLOW"
}

// WriteClass describes the origin of written data for the function-based
// placement policy.
type WriteClass int

// Write classes.
const (
	HostWrite WriteClass = iota
	GCWrite
)

func (c WriteClass) String() string {
	if c == HostWrite {
		return "host"
	}
	return "gc"
}

// SpeedFor is the function-based placement policy (§V-D): host writes go to
// fast superblocks, garbage-collection writes to slow superblocks.
func SpeedFor(c WriteClass) Speed {
	if c == HostWrite {
		return Fast
	}
	return Slow
}

// Errors returned by the scheme.
var (
	ErrLaneEmpty  = errors.New("core: a lane has no free blocks")
	ErrNotFree    = errors.New("core: block is not in the free pool")
	ErrDoubleFree = errors.New("core: block already in the free pool")
)

// blockInfo is the per-block metadata QSTR-MED persists: 4 bytes of block
// program latency plus one eigen bit per logical word-line (Equation 2).
type blockInfo struct {
	known   bool
	retired bool
	pgmSum  float64
	eigen   profile.Eigen
}

// gather is the latency table of one open block. It exists only while the
// block is being programmed (§V-B: "only for open blocks").
type gather struct {
	sum      float64
	row      []float64 // latencies of the current layer's strings
	rowFill  int
	eigen    profile.Eigen
	nextLWL  int
	complete bool
}

type laneState struct {
	free profile.SortedList
	info map[int]*blockInfo
}

// Scheme is the runtime QSTR-MED state for one flash array.
type Scheme struct {
	geo   flash.Geometry
	k     int
	lanes []laneState
	open  []*gather // dense block index (lane·BlocksPerPlane + block) → table

	pairChecks int
	assembled  int

	// Gathering tables cycle with every block open/close; pooling them (and
	// copying the finished eigen into the block's persistent metadata rather
	// than handing the gatherer's buffer away) keeps the per-P/E-cycle
	// gathering path allocation-free.
	gatherPool []*gather
	order      []int // markSlowHalf scratch
}

// NewScheme creates a QSTR-MED instance for the given geometry. k is the
// candidate window per lane (the paper uses 4).
func NewScheme(geo flash.Geometry, k int) (*Scheme, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: candidate window must be positive, got %d", k)
	}
	s := &Scheme{
		geo:   geo,
		k:     k,
		lanes: make([]laneState, geo.Lanes()),
		open:  make([]*gather, geo.TotalBlocks()),
	}
	for i := range s.lanes {
		s.lanes[i].info = make(map[int]*blockInfo)
	}
	return s, nil
}

// K returns the candidate window size.
func (s *Scheme) K() int { return s.k }

// PairChecks returns the cumulative number of similarity checks performed.
func (s *Scheme) PairChecks() int { return s.pairChecks }

// Assembled returns the number of superblocks assembled so far.
func (s *Scheme) Assembled() int { return s.assembled }

func (s *Scheme) inRange(addr flash.BlockAddr) bool {
	l := addr.Lane(s.geo)
	return l >= 0 && l < len(s.lanes) && addr.Block >= 0 && addr.Block < s.geo.BlocksPerPlane
}

func (s *Scheme) lane(addr flash.BlockAddr) *laneState {
	return &s.lanes[addr.Lane(s.geo)]
}

func (s *Scheme) info(addr flash.BlockAddr) *blockInfo {
	ls := s.lane(addr)
	bi := ls.info[addr.Block]
	if bi == nil {
		bi = &blockInfo{}
		ls.info[addr.Block] = bi
	}
	return bi
}

// sortKey orders free blocks: characterized blocks by program latency,
// uncharacterized blocks after them (cold start) by block index.
func (s *Scheme) sortKey(addr flash.BlockAddr) float64 {
	bi := s.info(addr)
	if bi.known {
		return bi.pgmSum
	}
	return math.MaxFloat64 / 2
}

// ErrRetired reports an attempt to free a retired (bad) block.
var ErrRetired = errors.New("core: block is retired")

// Retire permanently removes a block from circulation (bad block). If the
// block is currently free it leaves the pool; it can never be freed again.
func (s *Scheme) Retire(addr flash.BlockAddr) error {
	if !s.inRange(addr) {
		return fmt.Errorf("core: %v out of range", addr)
	}
	s.info(addr).retired = true
	s.lane(addr).free.Remove(addr.Block)
	return nil
}

// Retired reports whether a block has been retired.
func (s *Scheme) Retired(addr flash.BlockAddr) bool { return s.info(addr).retired }

// AddFree returns a block to the free pool of its lane, keyed by its last
// gathered program latency. Blocks never characterized sort after all
// characterized blocks.
func (s *Scheme) AddFree(addr flash.BlockAddr) error {
	if !s.inRange(addr) {
		return fmt.Errorf("core: %v out of range", addr)
	}
	if s.info(addr).retired {
		return fmt.Errorf("%w: %v", ErrRetired, addr)
	}
	ls := s.lane(addr)
	for i := 0; i < ls.free.Len(); i++ {
		if ls.free.At(i).Block == addr.Block {
			return fmt.Errorf("%w: %v", ErrDoubleFree, addr)
		}
	}
	ls.free.Insert(addr.Block, s.sortKey(addr))
	return nil
}

// RemoveFree drops a block from its lane's free pool if present (recovery
// paths use it when a scan finds the block holding live data). It reports
// whether the block was in the pool.
func (s *Scheme) RemoveFree(addr flash.BlockAddr) bool {
	if addr.Lane(s.geo) < 0 || addr.Lane(s.geo) >= len(s.lanes) {
		return false
	}
	return s.lane(addr).free.Remove(addr.Block)
}

// FreeCount returns the minimum number of free blocks over all lanes — the
// number of superblocks that can still be assembled.
func (s *Scheme) FreeCount() int {
	min := math.MaxInt
	for i := range s.lanes {
		if n := s.lanes[i].free.Len(); n < min {
			min = n
		}
	}
	if min == math.MaxInt {
		return 0
	}
	return min
}

// NoteProgram is the gathering hook (§V-B): the FTL calls it for every
// word-line program with the observed latency. When the block's last
// word-line completes, the block's (sum, eigen) metadata is stored for the
// next time the block is freed.
func (s *Scheme) NoteProgram(addr flash.BlockAddr, lwl int, latency float64) error {
	nWL := s.geo.LWLsPerBlock()
	if lwl < 0 || lwl >= nWL {
		return fmt.Errorf("core: word-line %d out of range", lwl)
	}
	if !s.inRange(addr) {
		return fmt.Errorf("core: %v out of range", addr)
	}
	slot := &s.open[addr.Lane(s.geo)*s.geo.BlocksPerPlane+addr.Block]
	g := *slot
	if g == nil {
		if lwl != 0 {
			// Mid-block visibility (e.g. the scheme was attached late):
			// skip gathering for this pass; the block keeps its old info.
			return nil
		}
		g = s.newGather(nWL)
		*slot = g
	}
	if lwl != g.nextLWL {
		// Out-of-order observation: abandon this gathering pass.
		*slot = nil
		s.gatherPool = append(s.gatherPool, g)
		return nil
	}
	g.sum += latency
	_, str := s.geo.LayerString(lwl)
	g.row[str] = latency
	g.rowFill++
	g.nextLWL++
	if g.rowFill == s.geo.Strings {
		layer := lwl / s.geo.Strings
		s.markSlowHalf(&g.eigen, g.row, layer, s.geo.Strings)
		g.rowFill = 0
	}
	if g.nextLWL == nWL {
		bi := s.info(addr)
		bi.known = true
		bi.pgmSum = g.sum
		// Copy rather than adopt the gatherer's eigen buffer: the block's
		// metadata outlives the gathering pass, and the pass's table goes
		// back to the pool for the next open block.
		bi.eigen.CopyFrom(g.eigen)
		*slot = nil
		s.gatherPool = append(s.gatherPool, g)
	}
	return nil
}

// newGather returns a cleared latency table, reusing a pooled one when
// available.
func (s *Scheme) newGather(nWL int) *gather {
	if n := len(s.gatherPool); n > 0 {
		g := s.gatherPool[n-1]
		s.gatherPool = s.gatherPool[:n-1]
		g.sum = 0
		g.rowFill = 0
		g.nextLWL = 0
		g.complete = false
		g.eigen.Reset(nWL)
		return g
	}
	return &gather{
		row:   make([]float64, s.geo.Strings),
		eigen: profile.NewEigenBuilder(nWL),
	}
}

// markSlowHalf sets eigen bit 1 for the slower half of the strings on one
// layer, bit 0 for the fastest half; ties resolve to the earlier string.
// The ordering is a stable insertion sort over scheme-owned scratch — the
// row is Strings wide (4 in the paper's geometry), where insertion sort
// beats sort.SliceStable and, unlike it, does not allocate a closure and
// swapper per call.
func (s *Scheme) markSlowHalf(e *profile.Eigen, row []float64, layer, strings int) {
	fast := strings / 2
	if fast == 0 {
		fast = 1
	}
	if cap(s.order) < strings {
		s.order = make([]int, strings)
	}
	order := s.order[:strings]
	for i := range order {
		order[i] = i
	}
	// Insertion sort ascending by (latency, string index): identical total
	// order to the previous stable sort with its explicit index tie-break.
	for i := 1; i < strings; i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && (row[order[j]] > row[v] || (row[order[j]] == row[v] && order[j] > v)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	for i := fast; i < strings; i++ {
		e.SetBit(layer*strings + order[i])
	}
}

// Seed installs externally characterized metadata for a block (for example
// from a factory characterization pass), without going through NoteProgram.
func (s *Scheme) Seed(addr flash.BlockAddr, pgmSum float64, eigen profile.Eigen) {
	bi := s.info(addr)
	bi.known = true
	bi.pgmSum = pgmSum
	bi.eigen = eigen
}

// Known reports whether the block has gathered metadata.
func (s *Scheme) Known(addr flash.BlockAddr) bool { return s.info(addr).known }

// addrOf rebuilds a BlockAddr from a lane index and block index.
func (s *Scheme) addrOf(lane, block int) flash.BlockAddr {
	return flash.BlockAddr{
		Chip:  lane / s.geo.PlanesPerChip,
		Plane: lane % s.geo.PlanesPerChip,
		Block: block,
	}
}

// Assemble builds one superblock of the requested speed on demand (§V-C)
// and removes its members from the free pools.
func (s *Scheme) Assemble(speed Speed) ([]flash.BlockAddr, error) {
	return s.AssembleInto(nil, speed)
}

// AssembleInto is Assemble appending the members into dst (usually a
// recycled, zero-length slice), so steady-state assembly reuses storage
// from collected superblocks instead of allocating.
func (s *Scheme) AssembleInto(dst []flash.BlockAddr, speed Speed) ([]flash.BlockAddr, error) {
	nl := len(s.lanes)
	for i := range s.lanes {
		if s.lanes[i].free.Len() == 0 {
			return nil, fmt.Errorf("%w: lane %d", ErrLaneEmpty, i)
		}
	}
	// Step 1: the reference block is the fastest (or slowest) end block
	// over all lanes.
	refLane := -1
	var refEntry profile.Entry
	for i := range s.lanes {
		var e profile.Entry
		if speed == Fast {
			e = s.lanes[i].free.At(0)
		} else {
			e = s.lanes[i].free.At(s.lanes[i].free.Len() - 1)
		}
		better := refLane == -1 ||
			(speed == Fast && e.Key < refEntry.Key) ||
			(speed == Slow && e.Key > refEntry.Key)
		if better {
			refLane, refEntry = i, e
		}
	}
	refAddr := s.addrOf(refLane, refEntry.Block)
	refInfo := s.info(refAddr)

	members := dst[:0]
	for j := 0; j < nl; j++ {
		members = append(members, flash.BlockAddr{})
	}
	members[refLane] = refAddr
	// Step 2: per other lane, one similarity check against each of the K
	// end candidates; take the most similar (ties: the faster/slower one,
	// i.e. the first in end order). Candidates are read in place via At —
	// the same window and order Head/Tail used to copy out.
	for i := range s.lanes {
		if i == refLane {
			continue
		}
		free := &s.lanes[i].free
		k := s.k
		if k > free.Len() {
			k = free.Len()
		}
		candAt := func(ci int) profile.Entry {
			if speed == Fast {
				return free.At(ci) // fastest first
			}
			return free.At(free.Len() - 1 - ci) // slowest first
		}
		best := 0
		bestDist := math.MaxInt
		for ci := 0; ci < k; ci++ {
			cInfo := s.info(s.addrOf(i, candAt(ci).Block))
			d := 0
			if refInfo.known && cInfo.known {
				s.pairChecks++
				d = refInfo.eigen.Distance(cInfo.eigen)
			}
			if d < bestDist {
				bestDist = d
				best = ci
			}
		}
		members[i] = s.addrOf(i, candAt(best).Block)
	}
	for _, m := range members {
		if !s.lane(m).free.Remove(m.Block) {
			return nil, fmt.Errorf("%w: %v", ErrNotFree, m)
		}
	}
	s.assembled++
	return members, nil
}

// AssembleArbitrary builds a superblock by letting sel choose one entry from
// each lane's free list (entries are ordered fastest-known first). It
// bypasses the similarity check; the FTL's baseline organizers (sequential,
// random) are built on it.
func (s *Scheme) AssembleArbitrary(sel func(entries []profile.Entry) int) ([]flash.BlockAddr, error) {
	return s.AssembleArbitraryInto(nil, sel)
}

// AssembleArbitraryInto is AssembleArbitrary appending into dst (usually a
// recycled slice). sel receives the lane's live sorted list — a read-only
// view, not the copy Head used to make, which made the baseline organizers
// O(blocks) allocations per assembly.
func (s *Scheme) AssembleArbitraryInto(dst []flash.BlockAddr, sel func(entries []profile.Entry) int) ([]flash.BlockAddr, error) {
	for i := range s.lanes {
		if s.lanes[i].free.Len() == 0 {
			return nil, fmt.Errorf("%w: lane %d", ErrLaneEmpty, i)
		}
	}
	members := dst[:0]
	for range s.lanes {
		members = append(members, flash.BlockAddr{})
	}
	for i := range s.lanes {
		entries := s.lanes[i].free.Entries()
		k := sel(entries)
		if k < 0 || k >= len(entries) {
			return nil, fmt.Errorf("core: selector returned %d for %d entries", k, len(entries))
		}
		members[i] = s.addrOf(i, entries[k].Block)
		if !s.lanes[i].free.Remove(entries[k].Block) {
			return nil, fmt.Errorf("%w: %v", ErrNotFree, members[i])
		}
	}
	s.assembled++
	return members, nil
}

// MemoryFootprintBytes evaluates the paper's Equation 2: per block, a 4-byte
// program-latency sum plus one bit per logical word-line.
func MemoryFootprintBytes(geo flash.Geometry) int {
	perBlock := 4 + (geo.LWLsPerBlock()+7)/8
	return geo.TotalBlocks() * perBlock
}

// BatchAssembler adapts QSTR-MED to the characterization experiments: it
// implements assembly.Assembler by repeatedly assembling fast superblocks on
// demand until the lanes are exhausted, so it can be compared head-to-head
// with the offline strategies of Tables I and V.
type BatchAssembler struct {
	K int
}

// Name implements assembly.Assembler.
func (b BatchAssembler) Name() string { return fmt.Sprintf("QSTR-MED (%d)", b.K) }

// Assemble implements assembly.Assembler.
func (b BatchAssembler) Assemble(lanes []assembly.Lane) (assembly.Result, error) {
	if len(lanes) == 0 || len(lanes[0].Blocks) == 0 {
		return assembly.Result{}, assembly.ErrLaneShape
	}
	if b.K <= 0 {
		return assembly.Result{}, fmt.Errorf("core: candidate window must be positive, got %d", b.K)
	}
	n := len(lanes[0].Blocks)
	type cand struct {
		idx    int // index into Lane.Blocks
		pgmSum float64
		eigen  profile.Eigen
	}
	pools := make([][]cand, len(lanes))
	for i, l := range lanes {
		if len(l.Blocks) != n {
			return assembly.Result{}, assembly.ErrLaneShape
		}
		pool := make([]cand, n)
		for j, blk := range l.Blocks {
			pool[j] = cand{idx: j, pgmSum: blk.PgmSum, eigen: profile.EigenFromProfile(blk)}
		}
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].pgmSum < pool[b].pgmSum })
		pools[i] = pool
	}
	res := assembly.Result{Superblocks: make([][]int, 0, n)}
	for len(pools[0]) > 0 {
		// Reference: globally fastest head.
		refLane := 0
		for i := range pools {
			if pools[i][0].pgmSum < pools[refLane][0].pgmSum {
				refLane = i
			}
		}
		ref := pools[refLane][0]
		members := make([]int, len(lanes))
		members[refLane] = ref.idx
		pools[refLane] = pools[refLane][1:]
		for i := range pools {
			if i == refLane {
				continue
			}
			k := b.K
			if k > len(pools[i]) {
				k = len(pools[i])
			}
			best, bestDist := 0, math.MaxInt
			for ci := 0; ci < k; ci++ {
				res.PairChecks++
				res.Combos++
				if d := ref.eigen.Distance(pools[i][ci].eigen); d < bestDist {
					bestDist = d
					best = ci
				}
			}
			members[i] = pools[i][best].idx
			pools[i] = append(pools[i][:best], pools[i][best+1:]...)
		}
		res.Superblocks = append(res.Superblocks, members)
	}
	return res, nil
}
