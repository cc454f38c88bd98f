// Package volume shards one logical LPN space across N block-service
// backends: deterministic striped placement with optional K-way replication,
// per-backend pipelined connections, scatter/gather range operations, live
// backend add/remove with shard-range rebalancing, and a cluster view that
// merges per-backend statistics into one exposition. The CLI front end is
// cmd/ftlvol; cmd/ftlload can drive a volume directly with -backends.
package volume

import (
	"errors"
	"fmt"
	"sort"
)

// Loc is one placed copy of a logical page: the backend holding it and the
// shard-local LPN on that backend's device.
type Loc struct {
	Backend int   // index into the volume's backend table
	SLPN    int64 // shard-local LPN
}

// Move is one planned shard-range relocation: replica copy Replica of stripe
// unit Unit leaves backend From (freeing FromSlot) for backend To (slot
// ToSlot, already reserved). The unit covers logical pages
// [Unit×stripe, (Unit+1)×stripe).
type Move struct {
	Unit     int64
	Replica  int
	From     int
	FromSlot int64
	To       int
	ToSlot   int64
}

// backendState is one backend's slot accounting.
type backendState struct {
	active   bool
	capSlots int64   // total slots this backend can hold
	nextSlot int64   // high-water mark of never-used slots
	freed    []int64 // returned slots, kept ascending; reused lowest-first
	used     int64   // slots currently assigned
	rev      []int64 // slot → unit, -1 when empty (len = nextSlot high-water)
}

// Placement is the deterministic mapping from logical pages to backend shard
// pages. The logical space is cut into stripe units of Stripe pages; each
// unit is assigned to Replicas distinct backends, each holding it in one
// slot (a stripe-aligned run of shard LPNs). The initial layout stripes
// units round-robin (unit u's primary is backend u mod N, slot u div N —
// the RAID-0 layout that makes aggregate bandwidth scale with N); rebalance
// plans move whole units and nothing else, so a backend-set change relocates
// exactly the planned shard ranges.
//
// Placement is pure bookkeeping — it never touches data. Not safe for
// concurrent use; the Volume serializes access.
type Placement struct {
	space    int64 // logical pages (whole units)
	stripe   int64 // pages per unit
	replicas int

	units    [][]locSlot // unit → replica copies, primary first
	backends []backendState
}

// locSlot is an internal placement entry in slot (not page) units.
type locSlot struct {
	backend int
	slot    int64
}

// NewPlacement builds the initial striped layout. space is the logical page
// count (rounded down to whole stripe units), stripe the pages per unit, and
// backendSlots each backend's capacity in slots (its device capacity divided
// by the stripe size). replicas copies of every unit are placed on distinct
// backends.
func NewPlacement(space, stripe int64, backendSlots []int64, replicas int) (*Placement, error) {
	n := len(backendSlots)
	if n == 0 {
		return nil, fmt.Errorf("volume: no backends")
	}
	if stripe < 1 {
		return nil, fmt.Errorf("volume: stripe %d pages, want ≥ 1", stripe)
	}
	if replicas < 1 || replicas > n {
		return nil, fmt.Errorf("volume: %d replicas over %d backends", replicas, n)
	}
	units := space / stripe
	if units < 1 {
		return nil, fmt.Errorf("volume: space %d pages < one stripe unit of %d", space, stripe)
	}
	p := &Placement{
		space:    units * stripe,
		stripe:   stripe,
		replicas: replicas,
		units:    make([][]locSlot, units),
		backends: make([]backendState, n),
	}
	for i, s := range backendSlots {
		if s < 1 {
			return nil, fmt.Errorf("volume: backend %d holds %d slots", i, s)
		}
		p.backends[i] = backendState{active: true, capSlots: s}
	}
	for u := int64(0); u < units; u++ {
		copies := make([]locSlot, 0, replicas)
		for k := 0; k < replicas; k++ {
			b := int((u + int64(k)) % int64(n))
			slot, err := p.takeSlot(b, u)
			if err != nil {
				return nil, fmt.Errorf("volume: placing unit %d replica %d: %w", u, k, err)
			}
			copies = append(copies, locSlot{backend: b, slot: slot})
		}
		p.units[u] = copies
	}
	return p, nil
}

// takeSlot reserves the lowest free slot on backend b for unit u.
func (p *Placement) takeSlot(b int, u int64) (int64, error) {
	bs := &p.backends[b]
	var slot int64
	if len(bs.freed) > 0 {
		slot = bs.freed[0]
		bs.freed = bs.freed[1:]
	} else {
		if bs.nextSlot >= bs.capSlots {
			return 0, fmt.Errorf("backend %d full (%d slots)", b, bs.capSlots)
		}
		slot = bs.nextSlot
		bs.nextSlot++
		bs.rev = append(bs.rev, -1)
	}
	bs.rev[slot] = u
	bs.used++
	return slot, nil
}

// freeSlot returns a slot to backend b's free list.
func (p *Placement) freeSlot(b int, slot int64) {
	bs := &p.backends[b]
	bs.rev[slot] = -1
	bs.used--
	i := sort.Search(len(bs.freed), func(i int) bool { return bs.freed[i] >= slot })
	bs.freed = append(bs.freed, 0)
	copy(bs.freed[i+1:], bs.freed[i:])
	bs.freed[i] = slot
}

// Space returns the logical page count (whole stripe units).
func (p *Placement) Space() int64 { return p.space }

// Stripe returns the pages per stripe unit.
func (p *Placement) Stripe() int64 { return p.stripe }

// Units returns the stripe-unit count.
func (p *Placement) Units() int64 { return int64(len(p.units)) }

// Replicas returns the copies kept of every unit.
func (p *Placement) Replicas() int { return p.replicas }

// Backends returns the size of the backend table, including removed entries.
func (p *Placement) Backends() int { return len(p.backends) }

// Active reports whether backend b is serving shard ranges.
func (p *Placement) Active(b int) bool {
	return b >= 0 && b < len(p.backends) && p.backends[b].active
}

// SlotsUsed returns the slots currently assigned on backend b.
func (p *Placement) SlotsUsed(b int) int64 { return p.backends[b].used }

// ErrOutOfRange marks an LPN outside the logical space: the caller's fault.
var ErrOutOfRange = errors.New("volume: lpn out of range")

// Locate appends the placed copies of lpn to out (primary first) and returns
// the extended slice. Every copy lives on a distinct backend.
func (p *Placement) Locate(lpn int64, out []Loc) ([]Loc, error) {
	if lpn < 0 || lpn >= p.space {
		return out, fmt.Errorf("%w: %d outside [0, %d)", ErrOutOfRange, lpn, p.space)
	}
	u := lpn / p.stripe
	off := lpn % p.stripe
	for _, c := range p.units[u] {
		out = append(out, Loc{Backend: c.backend, SLPN: c.slot*p.stripe + off})
	}
	return out, nil
}

// Reverse maps one backend shard page back to its logical page. ok is false
// when no unit copy occupies that shard page.
func (p *Placement) Reverse(backend int, slpn int64) (int64, bool) {
	if backend < 0 || backend >= len(p.backends) || slpn < 0 {
		return 0, false
	}
	bs := &p.backends[backend]
	slot := slpn / p.stripe
	if slot >= int64(len(bs.rev)) || bs.rev[slot] < 0 {
		return 0, false
	}
	return bs.rev[slot]*p.stripe + slpn%p.stripe, true
}

// loadOrder returns the active backend indexes sorted by descending used
// slots, ties broken by ascending index — the deterministic donor order.
func (p *Placement) loadOrder() []int {
	var idx []int
	for i := range p.backends {
		if p.backends[i].active {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if p.backends[idx[a]].used != p.backends[idx[b]].used {
			return p.backends[idx[a]].used > p.backends[idx[b]].used
		}
		return idx[a] < idx[b]
	})
	return idx
}

// holdsUnit reports whether backend b already holds a copy of unit u.
func (p *Placement) holdsUnit(b int, u int64) bool {
	for _, c := range p.units[u] {
		if c.backend == b {
			return true
		}
	}
	return false
}

// largestUnitOn returns the unit in backend b's highest occupied slot that
// backend 'to' does not already hold and that is not in skip, plus its
// replica index; found is false when none qualifies. Highest-slot-first keeps
// donor shards dense at the bottom of their slot space.
func (p *Placement) largestUnitOn(b, to int, skip map[int64]bool) (unit int64, replica int, found bool) {
	bs := &p.backends[b]
	for slot := int64(len(bs.rev)) - 1; slot >= 0; slot-- {
		u := bs.rev[slot]
		if u < 0 || skip[u] || p.holdsUnit(to, u) {
			continue
		}
		for k, c := range p.units[u] {
			if c.backend == b && c.slot == slot {
				return u, k, true
			}
		}
	}
	return 0, 0, false
}

// BeginAdd registers a new backend with the given slot capacity and plans
// the rebalance toward an even load: units move (largest-unit-first from the
// most-loaded donors) until the newcomer reaches the cluster mean or its
// capacity. Destination slots are reserved immediately; each move takes
// effect only when Commit is called after its data has been copied, so
// traffic keeps flowing off the old copies meanwhile. The returned moves are
// the complete difference between the old and new layouts — nothing else
// relocates.
func (p *Placement) BeginAdd(slots int64) (int, []Move, error) {
	if slots < 1 {
		return 0, nil, fmt.Errorf("volume: new backend holds %d slots", slots)
	}
	nb := len(p.backends)
	p.backends = append(p.backends, backendState{active: true, capSlots: slots})
	var total int64
	var active int64
	for i := range p.backends {
		if p.backends[i].active {
			total += p.backends[i].used
			active++
		}
	}
	target := total / active
	if target > slots {
		target = slots
	}
	// Donors keep their slots until Commit, so planning tracks the pending
	// outbound count per donor (effective load) and the units already claimed,
	// or every iteration would re-pick the same highest slot.
	planned := make(map[int64]bool)
	pendingOut := make(map[int]int64)
	var moves []Move
	for p.backends[nb].used < target {
		donor, donorLoad := -1, int64(0)
		for i := range p.backends {
			if i == nb || !p.backends[i].active {
				continue
			}
			eff := p.backends[i].used - pendingOut[i]
			if eff <= target {
				continue
			}
			if donor == -1 || eff > donorLoad {
				donor, donorLoad = i, eff
			}
		}
		if donor == -1 {
			break
		}
		u, k, ok := p.largestUnitOn(donor, nb, planned)
		if !ok {
			pendingOut[donor] = p.backends[donor].used - target // exhausted
			continue
		}
		slot, err := p.takeSlot(nb, u)
		if err != nil {
			// Unreachable while target ≤ capSlots, but a failed plan must not
			// leak: release every reservation and drop the new backend.
			for _, m := range moves {
				p.freeSlot(m.To, m.ToSlot)
			}
			p.backends = p.backends[:nb]
			return 0, nil, err
		}
		// takeSlot points rev at the unit for reservation accounting, but
		// the unit still reads from the donor until Commit.
		moves = append(moves, Move{
			Unit: u, Replica: k,
			From: donor, FromSlot: p.units[u][k].slot,
			To: nb, ToSlot: slot,
		})
		planned[u] = true
		pendingOut[donor]++
	}
	return nb, moves, nil
}

// BeginRemove deactivates backend b for new placement and plans the move of
// every unit copy it holds onto the least-loaded remaining backends.
// Destination slots are reserved immediately; each move commits after its
// copy. The backend keeps serving reads for uncommitted moves until the last
// Commit lands.
func (p *Placement) BeginRemove(b int) ([]Move, error) {
	if !p.Active(b) {
		return nil, fmt.Errorf("volume: backend %d is not active", b)
	}
	active := 0
	for i := range p.backends {
		if p.backends[i].active {
			active++
		}
	}
	if active-1 < p.replicas {
		return nil, fmt.Errorf("volume: removing backend %d leaves %d backends for %d replicas",
			b, active-1, p.replicas)
	}
	p.backends[b].active = false
	bs := &p.backends[b]
	var moves []Move
	// A plan that cannot complete must leave the placement exactly as it
	// found it: reactivate the backend and release every reserved slot.
	fail := func(err error) ([]Move, error) {
		for _, m := range moves {
			p.freeSlot(m.To, m.ToSlot)
		}
		p.backends[b].active = true
		return nil, err
	}
	for slot := int64(0); slot < int64(len(bs.rev)); slot++ {
		u := bs.rev[slot]
		if u < 0 {
			continue
		}
		replica := -1
		for k, c := range p.units[u] {
			if c.backend == b && c.slot == slot {
				replica = k
				break
			}
		}
		if replica < 0 {
			// Reserved destination of an uncommitted inbound move; the unit
			// still officially lives elsewhere. Removing mid-rebalance is not
			// supported.
			return fail(fmt.Errorf("volume: backend %d has an uncommitted inbound move for unit %d", b, u))
		}
		to := -1
		var bestLoad int64
		for _, cand := range p.loadOrderAsc() {
			if cand == b || p.holdsUnit(cand, u) {
				continue
			}
			cs := &p.backends[cand]
			if cs.used >= cs.capSlots {
				continue
			}
			if to == -1 || cs.used < bestLoad {
				to = cand
				bestLoad = cs.used
			}
		}
		if to == -1 {
			return fail(fmt.Errorf("volume: no backend can absorb unit %d from backend %d", u, b))
		}
		dst, err := p.takeSlot(to, u)
		if err != nil {
			return fail(err)
		}
		moves = append(moves, Move{Unit: u, Replica: replica, From: b, FromSlot: slot, To: to, ToSlot: dst})
	}
	return moves, nil
}

// loadOrderAsc returns active backends by ascending load, ties by index.
func (p *Placement) loadOrderAsc() []int {
	idx := p.loadOrder()
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
	// Reversing a desc-by-load/asc-by-index order yields asc-by-load but
	// desc-by-index ties; re-sort for the deterministic contract.
	sort.Slice(idx, func(a, b int) bool {
		if p.backends[idx[a]].used != p.backends[idx[b]].used {
			return p.backends[idx[a]].used < p.backends[idx[b]].used
		}
		return idx[a] < idx[b]
	})
	return idx
}

// Commit finalizes one planned move: the unit's replica now reads from the
// destination, and the source slot returns to its backend's free list.
func (p *Placement) Commit(m Move) error {
	if m.Unit < 0 || m.Unit >= int64(len(p.units)) {
		return fmt.Errorf("volume: commit of unknown unit %d", m.Unit)
	}
	if m.Replica < 0 || m.Replica >= p.replicas {
		return fmt.Errorf("volume: commit of unknown replica %d", m.Replica)
	}
	if m.To < 0 || m.To >= len(p.backends) || m.ToSlot < 0 ||
		m.ToSlot >= int64(len(p.backends[m.To].rev)) {
		return fmt.Errorf("volume: commit destination (%d,%d) out of range", m.To, m.ToSlot)
	}
	c := &p.units[m.Unit][m.Replica]
	if c.backend != m.From || c.slot != m.FromSlot {
		return fmt.Errorf("volume: commit mismatch for unit %d replica %d: at (%d,%d), move says (%d,%d)",
			m.Unit, m.Replica, c.backend, c.slot, m.From, m.FromSlot)
	}
	if got := p.backends[m.To].rev[m.ToSlot]; got != m.Unit {
		return fmt.Errorf("volume: destination slot (%d,%d) reserved for unit %d, not %d",
			m.To, m.ToSlot, got, m.Unit)
	}
	c.backend, c.slot = m.To, m.ToSlot
	p.freeSlot(m.From, m.FromSlot)
	return nil
}

// PageRange returns the logical page range [lo, hi) a move relocates.
func (m Move) PageRange(stripe int64) (lo, hi int64) {
	return m.Unit * stripe, (m.Unit + 1) * stripe
}
