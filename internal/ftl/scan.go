package ftl

import (
	"encoding/binary"
	"fmt"
	"sort"

	"superfast/internal/core"
	"superfast/internal/flash"
	"superfast/internal/pv"
)

// Every flushed page carries a 25-byte tag in the spare area: the logical
// page it holds, a global write sequence (newest copy wins), the superblock
// it belongs to and the superblock's speed class. Scanning these tags
// rebuilds the whole mapping after an unclean power loss — the recovery path
// that works without a checkpoint. (The QSTR-MED similarity metadata is not
// in the tags; after a scan recovery the scheme re-gathers, or restores from
// a core.Scheme snapshot if one survived.)

const (
	tagMagic  = 0x53465431 // "SFT1"
	tagBytes  = 25
	tagNoData = -2 // padded slot: no logical page
	tagParity = -1 // RAID parity page
)

func encodeTagInto(b []byte, lpn int64, seq uint64, sbID int, speed core.Speed) {
	binary.LittleEndian.PutUint32(b[0:], tagMagic)
	binary.LittleEndian.PutUint64(b[4:], uint64(lpn))
	binary.LittleEndian.PutUint64(b[12:], seq)
	binary.LittleEndian.PutUint32(b[20:], uint32(sbID))
	b[24] = byte(speed)
}

func encodeTag(lpn int64, seq uint64, sbID int, speed core.Speed) []byte {
	b := make([]byte, tagBytes)
	encodeTagInto(b, lpn, seq, sbID, speed)
	return b
}

// tagSlab is how many spare-area tags one cold-pool refill carves from a
// single slab allocation. A fresh device's first overwrite pass runs with an
// empty tag pool (nothing has been erased yet), so per-tag allocation there
// costs one malloc per programmed page; slab refills amortize it away.
const tagSlab = 64

// newTag encodes a spare-area tag into a buffer recycled from an erased
// block when one is available — the single largest allocator on the write
// path before the arenas existed. A cold pool refills from a slab: each cut
// is capped with a full slice expression so the tags can never grow into
// their neighbors.
func (f *FTL) newTag(lpn int64, seq uint64, sbID int, speed core.Speed) []byte {
	if len(f.tagPool) == 0 {
		slab := make([]byte, tagBytes*tagSlab)
		for i := 1; i < tagSlab; i++ {
			f.tagPool = append(f.tagPool, slab[i*tagBytes:(i+1)*tagBytes:(i+1)*tagBytes])
		}
		b := slab[0:tagBytes:tagBytes]
		encodeTagInto(b, lpn, seq, sbID, speed)
		return b
	}
	n := len(f.tagPool)
	b := f.tagPool[n-1][:tagBytes]
	f.tagPool = f.tagPool[:n-1]
	encodeTagInto(b, lpn, seq, sbID, speed)
	return b
}

func decodeTag(b []byte) (lpn int64, seq uint64, sbID int, speed core.Speed, ok bool) {
	if len(b) != tagBytes || binary.LittleEndian.Uint32(b[0:]) != tagMagic {
		return 0, 0, 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(b[4:])),
		binary.LittleEndian.Uint64(b[12:]),
		int(binary.LittleEndian.Uint32(b[20:])),
		core.Speed(b[24]), true
}

// RecoverByScan rebuilds an FTL over a data-retaining array by reading every
// programmed page's spare-area tag: mappings resolve newest-sequence-wins,
// superblock membership and speed come from the tags, and partially written
// superblocks reopen at their next word-line. Blocks never written by this
// FTL (no tags) return to the free pool.
func RecoverByScan(arr *flash.Array, cfg Config) (*FTL, error) {
	f, err := New(arr, cfg)
	if err != nil {
		return nil, err
	}
	geo := f.geo
	type win struct {
		ppn int64
		seq uint64
	}
	best := make(map[int64]win)
	type sbInfo struct {
		members  map[flash.BlockAddr]bool
		speed    core.Speed
		sealedAt uint64
	}
	sbs := map[int]*sbInfo{}
	var maxSeq uint64

	for lane := 0; lane < geo.Lanes(); lane++ {
		chip, plane := geo.LaneChipPlane(lane)
		for blk := 0; blk < geo.BlocksPerPlane; blk++ {
			addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: blk}
			next := arr.NextLWL(addr)
			tagged := false
			for lwl := 0; lwl < next; lwl++ {
				for t := 0; t < flash.PagesPerLWL; t++ {
					oob, err := arr.ReadOOB(flash.PageAddr{BlockAddr: addr, LWL: lwl, Type: pv.PageType(t)})
					if err != nil {
						return nil, fmt.Errorf("ftl: scan %v: %w", addr, err)
					}
					lpn, seq, sbID, speed, ok := decodeTag(oob)
					if !ok {
						continue
					}
					tagged = true
					if seq > maxSeq {
						maxSeq = seq
					}
					info := sbs[sbID]
					if info == nil {
						info = &sbInfo{members: map[flash.BlockAddr]bool{}, speed: speed}
						sbs[sbID] = info
					}
					info.members[addr] = true
					if seq > info.sealedAt {
						info.sealedAt = seq
					}
					if lpn < 0 || lpn >= f.logLen {
						continue // padding or parity
					}
					ppn := f.ppn(addr, lwl, pv.PageType(t))
					if w, seen := best[lpn]; !seen || seq > w.seq {
						best[lpn] = win{ppn: ppn, seq: seq}
					}
				}
			}
			if tagged {
				// The block belongs to a superblock; pull it from the pool.
				f.scheme.RemoveFree(addr)
			}
		}
	}

	// Rebuild the superblock table; ids sorted for determinism.
	ids := make([]int, 0, len(sbs))
	for id := range sbs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		info := sbs[id]
		members := make([]flash.BlockAddr, 0, len(info.members))
		for m := range info.members {
			members = append(members, m)
		}
		sort.Slice(members, func(a, b int) bool {
			return members[a].Lane(geo) < members[b].Lane(geo)
		})
		sb := &superblock{id: id, members: members, speed: info.speed}
		sb.sealed = true
		for _, m := range members {
			if !arr.IsFull(m) {
				sb.sealed = false
			}
			f.bySB[f.blockIdx(m)] = sb
		}
		sb.sealedAt = 0 // ages reset; cost-benefit restarts fairly
		f.sbs[id] = sb
		if id >= f.nextSBID {
			f.nextSBID = id + 1
		}
		if !sb.sealed {
			// Reopen at the members' common write position.
			st := f.newOpenState(sb)
			st.nextWL = arr.NextLWL(members[0])
			f.open[sb.speed] = st
		}
	}
	// Install the winning mappings and valid counters.
	for lpn, w := range best {
		f.l2p[lpn] = w.ppn
		f.p2l[w.ppn] = lpn
		if sb := f.bySB[w.ppn/int64(f.geo.PagesPerBlock())]; sb != nil {
			sb.valid++
		}
	}
	f.writeSeq = maxSeq + 1
	return f, nil
}

// programMultiOOB issues a multi-plane program with per-member spare-area
// tags, preserving ProgramMulti's latency semantics. The per-member latency
// slice is FTL-owned scratch: every consumer (NoteProgram, attribution, the
// op journal) reads it synchronously before the next flush overwrites it.
func (f *FTL) programMultiOOB(members []flash.BlockAddr, lwl int, pages [][][]byte, oobs [][][]byte) (flash.MultiOpResult, error) {
	arr := f.arr
	if cap(f.flushLats) < len(members) {
		f.flushLats = make([]float64, len(members))
	}
	lats := f.flushLats[:len(members)]
	for i, m := range members {
		var p, o [][]byte
		if pages != nil {
			p = pages[i]
		}
		if oobs != nil {
			o = oobs[i]
		}
		lat, err := arr.ProgramOOB(m, lwl, p, o)
		if err != nil {
			return flash.MultiOpResult{}, err
		}
		lats[i] = lat
	}
	max, min := lats[0], lats[0]
	for _, v := range lats[1:] {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	return flash.MultiOpResult{PerMember: lats, Latency: max, Extra: max - min}, nil
}
